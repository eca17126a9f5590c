package main

import (
	"os"
	"os/exec"
	"testing"
	"time"
)

func TestProcessCPUCountsBusyWork(t *testing.T) {
	before := selfCPU()
	x := 0
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		x++
	}
	if d := selfCPU() - before; d < 10*time.Millisecond {
		t.Errorf("50 ms of busy work used %v of CPU time (x=%d)", d, x)
	}
	own, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if own < before {
		t.Errorf("this process's clock read by pid, %v, is behind its own clock, %v", own, before)
	}
}

func TestProcessCPUReadsAnotherProcess(t *testing.T) {
	cmd := exec.Command("sleep", "5")
	if err := cmd.Start(); err != nil {
		t.Skip("cannot start sleep:", err)
	}
	pid := cmd.Process.Pid
	if _, err := processCPU(pid); err != nil {
		t.Errorf("CPU clock of child %d: %v", pid, err)
	}
	cmd.Process.Kill()
	cmd.Wait()
	if _, err := processCPU(pid); err == nil {
		t.Errorf("CPU clock of reaped child %d: no error", pid)
	}
}
