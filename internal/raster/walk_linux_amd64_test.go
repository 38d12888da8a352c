package raster

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestWalkKernelSelection checks the CPU probe against the kernel's
// own report of the CPU: /proc/cpuinfo lists avx only when the OS also
// saves the YMM state. A probe that wrongly said no would leave every
// walk on the slower Go path without failing any other test, and one
// that wrongly said yes would run AVX where it faults.
func TestWalkKernelSelection(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := slices.Contains(flags, "avx") && slices.Contains(flags, "popcnt")
	if haveWalkKernels != want {
		t.Fatalf("haveWalkKernels = %v, but /proc/cpuinfo lists avx %v and popcnt %v",
			haveWalkKernels, slices.Contains(flags, "avx"), slices.Contains(flags, "popcnt"))
	}
}
