package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// hostSample is the CPU time the hypervisor had stolen from this guest at
// one instant. On a shared host, a run's timings rise with the share of
// its interval that was stolen, so the run header records it to tell a
// slower program from a busier host.
type hostSample struct {
	at           time.Time
	steal, total uint64 // /proc/stat cpu ticks; 0 where unavailable
}

func sampleHost() hostSample {
	h := hostSample{at: time.Now()}
	h.steal, h.total = cpuTicks()
	return h
}

// until summarizes the interval from h to end for the run header.
func (h hostSample) until(end hostSample) map[string]any {
	return map[string]any{
		"steal_frac": ratio(float64(end.steal-h.steal), float64(end.total-h.total)),
		"seconds":    end.at.Sub(h.at).Seconds(),
	}
}

// cpuTicks reads the steal and total tick counts of /proc/stat's cpu line.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
