package core

func init() {
	if hasAVX2() {
		laneKernelFold = laneFoldAVX2
	}
}

// hasAVX2 reports whether the CPU runs AVX2 and the operating system
// saves the YMM registers across context switches.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// laneFoldAVX2 is laneKernelFold in AVX2.
//
//go:noescape
func laneFoldAVX2(ring, state, off, dist []uint32, groups, mask, k, n uint64)
