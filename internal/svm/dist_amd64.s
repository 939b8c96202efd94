// AVX2+FMA kernel for batch RBF evaluation. Only used when runtime CPUID
// detection (dist_amd64.go) confirms AVX2, FMA and OS ymm-state support;
// sqDistsGeneric + scalar expNeg are the portable fallback (forced by the
// noasm build tag).

//go:build amd64 && !noasm

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// EXPNEG runs expNeg (expneg.go) on four lanes: the same operations in the
// same order per lane, every product rounded before it is added (no FMA),
// so each lane carries the bits the scalar function returns. It loads four
// squared distances from d, scales them by gamma (Y13), and leaves
// coef·e^(-gamma·d) in YP, coefficients read from c. Lanes that are NaN or
// above 708 set their sign bit in Y14, as would a negative lane; the caller
// discards the sum when any bit is set, so what such a lane computes does
// not matter — but its table index is masked to 0..63 (X10) regardless,
// because VCVTTPD2DQ turns NaN and out-of-range lanes into 0x80000000.
//
// Fixed registers: R8 = &expNegTab, R9 = &expNegLanes (32-byte rows: 708,
// 64/ln2, ln2/64, 1/120, 1/24, 1/6, then 0.5 and 1, which live in Y11 and
// Y12), Y10 = 63 per int32 lane.
// Per chain: YX = x, then r, then (as XF) the table index; XN/YN = n, then
// k<<52; YT = constants, then tab[f]; YM = the gather mask.
#define EXPNEG(d, c, YX, XF, YP, XN, YN, YT, YM) \
	VMOVUPD d, YX; \
	VMULPD  Y13, YX, YX; \
	VCMPPD  $0x16, (R9), YX, YP; \
	VORPD   YP, Y14, Y14; \
	VORPD   YX, Y14, Y14; \
	VMULPD  32(R9), YX, YP; \
	VADDPD  Y11, YP, YP; \
	VCVTTPD2DQY YP, XN; \
	VCVTDQ2PD XN, YP; \
	VMULPD  64(R9), YP, YP; \
	VSUBPD  YP, YX, YX; \
	VMULPD  96(R9), YX, YP; \
	VMOVUPD 128(R9), YT; \
	VSUBPD  YP, YT, YP; \
	VMULPD  YX, YP, YP; \
	VMOVUPD 160(R9), YT; \
	VSUBPD  YP, YT, YP; \
	VMULPD  YX, YP, YP; \
	VSUBPD  YP, Y11, YP; \
	VMULPD  YX, YP, YP; \
	VSUBPD  YP, Y12, YP; \
	VMULPD  YX, YP, YP; \
	VSUBPD  YP, Y12, YP; \
	VPAND   X10, XN, XF; \
	VPCMPEQD YM, YM, YM; \
	VGATHERDPD YM, (R8)(XF*8), YT; \
	VMULPD  YP, YT, YP; \
	VPSRAD  $6, XN, XN; \
	VPMOVZXDQ XN, YN; \
	VPSLLQ  $52, YN, YN; \
	VPSUBQ  YN, YP, YP; \
	VMULPD  c, YP, YP

// func rbfBlocksAVX(flat, x, coef *float64, dim, blocks int, gamma float64, dists *float64) (sum float64, ok bool)
//
// Two passes over 4·blocks support vectors, one call per row.
//
// Pass 1, per block of four SV rows: one ymm accumulator per row takes
// (x-sv)² four features at a time by FMA, is reduced as (l0+l2)+(l1+l3),
// and the dim%4 trailing features are added with a separate multiply and
// add — all four rows side by side in one ymm, stored to dists.
//
// Pass 2 runs EXPNEG over dists two blocks per iteration (two independent
// dependency chains; one chain per iteration is latency-bound) and adds
// each block's terms as sum += ((p0+p1)+p2)+p3, blocks in order.
TEXT ·rbfBlocksAVX(SB), NOSPLIT, $0-65
	MOVQ flat+0(FP), SI
	MOVQ x+8(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ blocks+32(FP), R13
	MOVQ dists+48(FP), DI

	MOVQ CX, R12
	SHLQ $3, R12          // row stride in bytes
	MOVQ CX, BX
	ANDQ $-4, BX          // features covered by whole ymm loads

dist_block:
	MOVQ SI, R8                // row 0
	LEAQ (R8)(R12*1), R9       // row 1
	LEAQ (R9)(R12*1), R10      // row 2
	LEAQ (R10)(R12*1), R11     // row 3
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	XORQ AX, AX
	TESTQ BX, BX
	JZ   dist_reduce
dist_lanes:
	// x-sv, not sv-x: the square is the same and the load folds into VSUBPD.
	VMOVUPD (DX)(AX*8), Y0
	VSUBPD  (R8)(AX*8), Y0, Y5
	VFMADD231PD Y5, Y5, Y1
	VSUBPD  (R9)(AX*8), Y0, Y6
	VFMADD231PD Y6, Y6, Y2
	VSUBPD  (R10)(AX*8), Y0, Y7
	VFMADD231PD Y7, Y7, Y3
	VSUBPD  (R11)(AX*8), Y0, Y8
	VFMADD231PD Y8, Y8, Y4
	ADDQ $4, AX
	CMPQ AX, BX
	JL   dist_lanes
dist_reduce:
	// Y5 = [row0 l0+l2, l1+l3 | row2 l2+l0, l3+l1], Y6 likewise for rows
	// 1 and 3; the horizontal add then yields [d0, d1, d2, d3].
	VBLENDPD   $0xC, Y3, Y1, Y5
	VPERM2F128 $0x21, Y3, Y1, Y6
	VADDPD     Y6, Y5, Y5
	VBLENDPD   $0xC, Y4, Y2, Y6
	VPERM2F128 $0x21, Y4, Y2, Y7
	VADDPD     Y7, Y6, Y6
	VHADDPD    Y6, Y5, Y5
	CMPQ AX, CX
	JGE  dist_store
dist_tail:
	VMOVSD  (R8)(AX*8), X6
	VMOVHPD (R9)(AX*8), X6, X6
	VMOVSD  (R10)(AX*8), X7
	VMOVHPD (R11)(AX*8), X7, X7
	VINSERTF128 $1, X7, Y6, Y6
	VBROADCASTSD (DX)(AX*8), Y7
	VSUBPD  Y7, Y6, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y5, Y5
	INCQ AX
	CMPQ AX, CX
	JL   dist_tail
dist_store:
	VMOVUPD Y5, (DI)
	ADDQ $32, DI
	LEAQ (R11)(R12*1), SI
	DECQ R13
	JNZ  dist_block

	MOVQ dists+48(FP), DI
	MOVQ coef+16(FP), SI
	MOVQ blocks+32(FP), R13
	LEAQ ·expNegTab(SB), R8
	LEAQ ·expNegLanes(SB), R9
	VBROADCASTSD gamma+40(FP), Y13
	VMOVUPD  192(R9), Y11
	VMOVUPD  224(R9), Y12
	VPCMPEQD X10, X10, X10
	VPSRLD   $26, X10, X10
	VXORPD   Y14, Y14, Y14     // sign bits of lanes outside [0, 708]
	VXORPD   X15, X15, X15     // sum
	MOVQ R13, R12
	SHRQ $1, R12
	JZ   exp_single
exp_pair:
	EXPNEG(0(DI), 0(SI), Y0, X0, Y1, X2, Y2, Y3, Y4)
	EXPNEG(32(DI), 32(SI), Y5, X5, Y6, X7, Y7, Y8, Y9)
	// Both blocks' ((p0+p1)+p2)+p3 in one xmm, then into sum in order.
	VUNPCKLPD Y6, Y1, Y0       // [a0, b0, a2, b2]
	VUNPCKHPD Y6, Y1, Y2       // [a1, b1, a3, b3]
	VADDPD    X2, X0, X3
	VEXTRACTF128 $1, Y0, X0
	VADDPD    X0, X3, X3
	VEXTRACTF128 $1, Y2, X2
	VADDPD    X2, X3, X3
	VADDSD    X3, X15, X15
	VUNPCKHPD X3, X3, X3
	VADDSD    X3, X15, X15
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ R12
	JNZ  exp_pair
exp_single:
	TESTQ $1, R13
	JZ    exp_done
	EXPNEG(0(DI), 0(SI), Y0, X0, Y1, X2, Y2, Y3, Y4)
	VUNPCKHPD X1, X1, X0
	VADDSD    X0, X1, X2
	VEXTRACTF128 $1, Y1, X3
	VADDSD    X3, X2, X2
	VUNPCKHPD X3, X3, X3
	VADDSD    X3, X2, X2
	VADDSD    X2, X15, X15
exp_done:
	VMOVMSKPD Y14, AX
	TESTL AX, AX
	SETEQ ok+64(FP)
	VMOVSD X15, sum+56(FP)
	VZEROUPPER
	RET
