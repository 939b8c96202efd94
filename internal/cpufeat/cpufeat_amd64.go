//go:build amd64 && !noasm

package cpufeat

// Implemented in cpufeat_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// AVX2FMA reports whether 256-bit AVX2 and FMA code may run: the CPU must
// support AVX2 and FMA, and the OS must save ymm state on context switch
// (OSXSAVE + XCR0 bits 1-2).
var AVX2FMA = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c&osxsaveBit == 0 || c&avxBit == 0 || c&fmaBit == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}()

// AVX512 reports whether 512-bit code with opmasks may run: AVX2FMA holds,
// the CPU supports AVX512F and AVX512DQ, and the OS saves the opmask and
// zmm state (XCR0 bits 5-7 beside 1-2).
var AVX512 = func() bool {
	if !AVX2FMA {
		return false
	}
	if eax, _ := xgetbv(); eax&0xE6 != 0xE6 {
		return false
	}
	const (
		avx512fBit  = 1 << 16
		avx512dqBit = 1 << 17
	)
	_, b, _, _ := cpuid(7, 0)
	return b&avx512fBit != 0 && b&avx512dqBit != 0
}()
