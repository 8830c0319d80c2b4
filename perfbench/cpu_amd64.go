package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor's brand string, read with CPUID so the
// benchmark opens no file outside its checkout.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}
