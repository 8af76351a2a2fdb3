#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// A group's state is kFields rows of 32 bytes at offsets 0 (base), 32
// (peak), 64 (end), 96 (start), 128 (period) and 160 (sum); see
// laneKernel.

// ROW points DI, from R8, at the ring row of event AX less the
// producer distance dist[CX], and moves CX to the next producer.
#define ROW \
	MOVL  (R14)(CX*4), SI; \
	MOVQ  AX, DI; \
	SUBQ  SI, DI; \
	ANDQ  R10, DI; \
	IMULQ R9, DI; \
	INCQ  CX

// STEP finishes event AX in one group: cur, holding max(base, its
// producers), becomes the event's value and raises peak; a lane whose
// end countdown runs out adds peak - base to sum, and one whose start
// countdown runs out moves base up to peak; each countdown that ran
// out restarts from the period at per. Y15 holds 1 in every lane, and
// Y12 and Y13 are scratch.
#define STEP(cur, base, peak, end, start, sum, per) \
	VPMAXUD  cur, peak, peak; \
	VPCMPEQD Y15, end, Y12; \
	VPSUBD   Y15, end, end; \
	VPSUBD   base, peak, Y13; \
	VPAND    Y12, Y13, Y13; \
	VPADDD   Y13, sum, sum; \
	VPAND    per, Y12, Y12; \
	VPOR     Y12, end, end; \
	VPCMPEQD Y15, start, Y12; \
	VPSUBD   Y15, start, start; \
	VPBLENDVB Y12, peak, base, base; \
	VPAND    per, Y12, Y12; \
	VPOR     Y12, start, start

// func laneFoldAVX2(ring, state, off, dist []uint32, groups, mask, k, n uint64)
//
// It folds every event into two groups of lanes at a time, whose state
// stays in registers for the whole run of events, and then into a last
// lone group, if any. n must be at least 1.
TEXT ·laneFoldAVX2(SB), NOSPLIT, $0-128
	MOVQ ring_base+0(FP), R8
	MOVQ state_base+24(FP), R11
	MOVQ dist_base+72(FP), R14
	MOVQ groups+96(FP), R12
	MOVQ R12, R9
	SHLQ $5, R9                 // bytes per ring row
	MOVQ mask+104(FP), R10
	MOVQ k+112(FP), BX
	ADDQ n+120(FP), BX          // one past the last event
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $31, Y15, Y15      // 1 in every lane

pairs:
	CMPQ R12, $2
	JB   lone
	VMOVDQU 0(R11), Y0          // group A: base, peak, end, start
	VMOVDQU 32(R11), Y1
	VMOVDQU 64(R11), Y2
	VMOVDQU 96(R11), Y3
	VMOVDQU 160(R11), Y4        // sum
	VMOVDQU 192(R11), Y5        // group B
	VMOVDQU 224(R11), Y6
	VMOVDQU 256(R11), Y7
	VMOVDQU 288(R11), Y8
	VMOVDQU 352(R11), Y9
	MOVQ k+112(FP), AX
	MOVQ off_base+48(FP), R13
	MOVL (R13), CX

pairevent:
	MOVL    4(R13), DX
	ADDQ    $4, R13
	VMOVDQU Y0, Y10
	VMOVDQU Y5, Y11
	CMPQ    CX, DX
	JAE     pairstore

pairproducer:
	ROW
	VPMAXUD (R8)(DI*1), Y10, Y10
	VPMAXUD 32(R8)(DI*1), Y11, Y11
	CMPQ CX, DX
	JB   pairproducer

pairstore:
	VPADDD  Y15, Y10, Y10
	VPADDD  Y15, Y11, Y11
	MOVQ    AX, DI
	ANDQ    R10, DI
	IMULQ   R9, DI
	VMOVDQU Y10, (R8)(DI*1)
	VMOVDQU Y11, 32(R8)(DI*1)
	STEP(Y10, Y0, Y1, Y2, Y3, Y4, 128(R11))
	STEP(Y11, Y5, Y6, Y7, Y8, Y9, 320(R11))
	INCQ AX
	CMPQ AX, BX
	JB   pairevent

	VMOVDQU Y0, 0(R11)
	VMOVDQU Y1, 32(R11)
	VMOVDQU Y2, 64(R11)
	VMOVDQU Y3, 96(R11)
	VMOVDQU Y4, 160(R11)
	VMOVDQU Y5, 192(R11)
	VMOVDQU Y6, 224(R11)
	VMOVDQU Y7, 256(R11)
	VMOVDQU Y8, 288(R11)
	VMOVDQU Y9, 352(R11)
	ADDQ    $64, R8
	ADDQ    $384, R11
	SUBQ    $2, R12
	JMP     pairs

lone:
	CMPQ R12, $0
	JEQ  done
	VMOVDQU 0(R11), Y0
	VMOVDQU 32(R11), Y1
	VMOVDQU 64(R11), Y2
	VMOVDQU 96(R11), Y3
	VMOVDQU 160(R11), Y4
	MOVQ    k+112(FP), AX
	MOVQ    off_base+48(FP), R13
	MOVL    (R13), CX

loneevent:
	MOVL    4(R13), DX
	ADDQ    $4, R13
	VMOVDQU Y0, Y10
	CMPQ    CX, DX
	JAE     lonestore

loneproducer:
	ROW
	VPMAXUD (R8)(DI*1), Y10, Y10
	CMPQ CX, DX
	JB   loneproducer

lonestore:
	VPADDD  Y15, Y10, Y10
	MOVQ    AX, DI
	ANDQ    R10, DI
	IMULQ   R9, DI
	VMOVDQU Y10, (R8)(DI*1)
	STEP(Y10, Y0, Y1, Y2, Y3, Y4, 128(R11))
	INCQ AX
	CMPQ AX, BX
	JB   loneevent

	VMOVDQU Y0, 0(R11)
	VMOVDQU Y1, 32(R11)
	VMOVDQU Y2, 64(R11)
	VMOVDQU Y3, 96(R11)
	VMOVDQU Y4, 160(R11)

done:
	VZEROUPPER
	RET
