// AVX2+FMA kernel for batch RBF evaluation. Only used when the runtime
// probe (internal/cpufeat) confirms AVX2, FMA and OS ymm-state support;
// sqDistsGeneric + scalar expNeg are the portable fallback (forced by the
// noasm build tag).

//go:build amd64 && !noasm

#include "textflag.h"

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

// EXPNEG8 is EXPNEG on eight lanes: the same operations in the same order,
// so each lane carries the bits the scalar function returns. ZX holds eight
// squared distances on entry; coef·e^(-gamma·d) is left in ZP, coefficients
// read from c under K6, the lanes that are support vectors of the call (the
// caller loads zero distances into the others, which are in range). A lane
// that is NaN or above 708 sets its bit in K7, and every lane ORs its value
// into Z15, whose sign bits mark negative lanes; the caller discards the sum
// when either is set. The table index is masked to 0..63 (Y13) regardless,
// because VCVTTPD2DQ turns NaN and out-of-range lanes into 0x80000000.
//
// Fixed registers: R8 = &expNegTab, Z16..Z23 = 708, 64/ln2, ln2/64, 1/120,
// 1/24, 1/6, 0.5, 1 and Z24 = gamma, in every lane; Y13 = 63 per int32 lane.
// Per chain: ZX = x, then r; YN = n, ZN = k<<52; YF = the table index;
// ZT = tab[f].
#define EXPNEG8(ZX, ZP, YN, ZN, YF, ZT, c) \
	VMULPD  Z24, ZX, ZX; \
	VCMPPD  $0x16, Z16, ZX, K2; \
	KORB    K2, K7, K7; \
	VPORQ   ZX, Z15, Z15; \
	VMULPD  Z17, ZX, ZP; \
	VADDPD  Z22, ZP, ZP; \
	VCVTTPD2DQ ZP, YN; \
	VCVTDQ2PD YN, ZP; \
	VMULPD  Z18, ZP, ZP; \
	VSUBPD  ZP, ZX, ZX; \
	VMULPD  Z19, ZX, ZP; \
	VSUBPD  ZP, Z20, ZP; \
	VMULPD  ZX, ZP, ZP; \
	VSUBPD  ZP, Z21, ZP; \
	VMULPD  ZX, ZP, ZP; \
	VSUBPD  ZP, Z22, ZP; \
	VMULPD  ZX, ZP, ZP; \
	VSUBPD  ZP, Z23, ZP; \
	VMULPD  ZX, ZP, ZP; \
	VSUBPD  ZP, Z23, ZP; \
	VPAND   Y13, YN, YF; \
	KXNORB  K1, K1, K1; \
	VGATHERDPD (R8)(YF*8), K1, ZT; \
	VMULPD  ZP, ZT, ZP; \
	VPSRAD  $6, YN, YN; \
	VPMOVZXDQ YN, ZN; \
	VPSLLQ  $52, ZN, ZN; \
	VPSUBQ  ZN, ZP, ZP; \
	VMULPD  c, ZP, K6, ZP

// HALVES8 adds each four-lane half of ZA and of ZB as ((p0+p1)+p2)+p3 and
// leaves [A low, B low] in X25 and [A high, B high] in X26.
#define HALVES8(ZA, ZB) \
	VUNPCKLPD ZB, ZA, Z26; \
	VUNPCKHPD ZB, ZA, Z27; \
	VADDPD    Z27, Z26, Z25; \
	VALIGNQ   $2, Z26, Z26, Z26; \
	VADDPD    Z26, Z25, Z25; \
	VALIGNQ   $2, Z27, Z27, Z27; \
	VADDPD    Z27, Z25, Z25; \
	VEXTRACTF64X2 $2, Z25, X26

// func rbfBlocksAVX512(lanes, x, coef *float64, dim, blocks int, gamma float64, dists *float64) (sum float64, ok bool)
//
// rbfBlocksAVX's result over 4·blocks support vectors, eight per vector op.
// lanes is lane-major: per block of eight support vectors, dim rows of
// eight doubles, one per support vector, so a load holds one feature of
// eight support vectors and a lane's accumulator never needs a horizontal
// reduction. Two passes, each two 8-blocks per iteration (two independent
// dependency chains), then one 8-block at a time; the last of those holds
// only four of the call's support vectors when blocks is odd, and K6 =
// 0x0F keeps its other four lanes — the nsv%4 remainder and the zero
// padding — out of the store, the coefficient load, the range check and
// the sum.
//
// Pass 1, per 8-block: four accumulators, one per feature residue mod 4,
// take (x-sv)² by FMA, are reduced as (a0+a2)+(a1+a3), and the dim%4
// trailing features are added with a separate multiply and add, so each
// lane is the AVX2 routine's distance; eight distances are stored to dists.
//
// Pass 2 runs EXPNEG8 over dists and adds each four-lane half as
// sum += ((p0+p1)+p2)+p3, the low half first: the AVX2 routine's blocks in
// its order.
TEXT ·rbfBlocksAVX512(SB), NOSPLIT, $0-65
	MOVQ lanes+0(FP), SI
	MOVQ x+8(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ blocks+32(FP), R13
	MOVQ dists+48(FP), DI

	MOVQ CX, R12
	SHLQ $6, R12          // 8-block stride in bytes
	MOVQ CX, R10
	ANDQ $-4, R10         // features covered by the four accumulators
	MOVL  $0xFF, AX
	KMOVB AX, K6

	CMPQ R13, $4
	JL   one_block
pair_block:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ SI, R11
	XORQ AX, AX
	TESTQ R10, R10
	JZ   pair_reduce
pair_lanes:
	VBROADCASTSD (DX)(AX*8), Z8
	VSUBPD  (R11), Z8, Z9
	VFMADD231PD Z9, Z9, Z0
	VSUBPD  (R11)(R12*1), Z8, Z10
	VFMADD231PD Z10, Z10, Z4
	VBROADCASTSD 8(DX)(AX*8), Z8
	VSUBPD  64(R11), Z8, Z9
	VFMADD231PD Z9, Z9, Z1
	VSUBPD  64(R11)(R12*1), Z8, Z10
	VFMADD231PD Z10, Z10, Z5
	VBROADCASTSD 16(DX)(AX*8), Z8
	VSUBPD  128(R11), Z8, Z9
	VFMADD231PD Z9, Z9, Z2
	VSUBPD  128(R11)(R12*1), Z8, Z10
	VFMADD231PD Z10, Z10, Z6
	VBROADCASTSD 24(DX)(AX*8), Z8
	VSUBPD  192(R11), Z8, Z9
	VFMADD231PD Z9, Z9, Z3
	VSUBPD  192(R11)(R12*1), Z8, Z10
	VFMADD231PD Z10, Z10, Z7
	ADDQ $256, R11
	ADDQ $4, AX
	CMPQ AX, R10
	JL   pair_lanes
pair_reduce:
	VADDPD Z2, Z0, Z0
	VADDPD Z3, Z1, Z1
	VADDPD Z1, Z0, Z0
	VADDPD Z6, Z4, Z4
	VADDPD Z7, Z5, Z5
	VADDPD Z5, Z4, Z4
	CMPQ AX, CX
	JGE  pair_store
pair_tail:
	VBROADCASTSD (DX)(AX*8), Z8
	VSUBPD  (R11), Z8, Z9
	VMULPD  Z9, Z9, Z9
	VADDPD  Z9, Z0, Z0
	VSUBPD  (R11)(R12*1), Z8, Z10
	VMULPD  Z10, Z10, Z10
	VADDPD  Z10, Z4, Z4
	ADDQ $64, R11
	INCQ AX
	CMPQ AX, CX
	JL   pair_tail
pair_store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z4, 64(DI)
	LEAQ (R11)(R12*1), SI
	ADDQ $128, DI
	SUBQ $4, R13
	CMPQ R13, $4
	JGE  pair_block

one_block:
	// R13 (0..3) blocks of four left: a whole 8-block, then the half one.
	TESTQ R13, R13
	JZ    exp_start
	CMPQ  R13, $2
	JGE   one_dist
	MOVL  $0x0F, AX
	KMOVB AX, K6
one_dist:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ SI, R11
	XORQ AX, AX
	TESTQ R10, R10
	JZ   one_reduce
one_lanes:
	VBROADCASTSD (DX)(AX*8), Z8
	VSUBPD  (R11), Z8, Z9
	VFMADD231PD Z9, Z9, Z0
	VBROADCASTSD 8(DX)(AX*8), Z8
	VSUBPD  64(R11), Z8, Z9
	VFMADD231PD Z9, Z9, Z1
	VBROADCASTSD 16(DX)(AX*8), Z8
	VSUBPD  128(R11), Z8, Z9
	VFMADD231PD Z9, Z9, Z2
	VBROADCASTSD 24(DX)(AX*8), Z8
	VSUBPD  192(R11), Z8, Z9
	VFMADD231PD Z9, Z9, Z3
	ADDQ $256, R11
	ADDQ $4, AX
	CMPQ AX, R10
	JL   one_lanes
one_reduce:
	VADDPD Z2, Z0, Z0
	VADDPD Z3, Z1, Z1
	VADDPD Z1, Z0, Z0
	CMPQ AX, CX
	JGE  one_store
one_tail:
	VBROADCASTSD (DX)(AX*8), Z8
	VSUBPD  (R11), Z8, Z9
	VMULPD  Z9, Z9, Z9
	VADDPD  Z9, Z0, Z0
	ADDQ $64, R11
	INCQ AX
	CMPQ AX, CX
	JL   one_tail
one_store:
	// dists holds only the call's support vectors: store under K6.
	VMOVUPD Z0, K6, (DI)
	MOVQ R11, SI
	ADDQ $64, DI
	SUBQ $2, R13
	JG   one_block

exp_start:
	MOVQ dists+48(FP), DI
	MOVQ coef+16(FP), BX
	MOVQ blocks+32(FP), R13
	LEAQ ·expNegTab(SB), R8
	LEAQ ·expNegLanes(SB), R9
	VBROADCASTSD 0(R9), Z16
	VBROADCASTSD 32(R9), Z17
	VBROADCASTSD 64(R9), Z18
	VBROADCASTSD 96(R9), Z19
	VBROADCASTSD 128(R9), Z20
	VBROADCASTSD 160(R9), Z21
	VBROADCASTSD 192(R9), Z22
	VBROADCASTSD 224(R9), Z23
	VBROADCASTSD gamma+40(FP), Z24
	VPCMPEQD Y13, Y13, Y13
	VPSRLD   $26, Y13, Y13
	VXORPD   X14, X14, X14     // sum
	VPXORQ   Z15, Z15, Z15     // sign bits of negative lanes
	KXORB    K7, K7, K7        // lanes that are NaN or above 708
	MOVL     $0xFF, AX
	KMOVB    AX, K6
	CMPQ R13, $4
	JL   exp_one
exp_pair:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z4
	EXPNEG8(Z0, Z1, Y2, Z3, Y9, Z10, (BX))
	EXPNEG8(Z4, Z5, Y6, Z7, Y11, Z12, 64(BX))
	HALVES8(Z1, Z5)
	VADDSD    X25, X14, X14
	VADDSD    X26, X14, X14
	VUNPCKHPD X25, X25, X25
	VADDSD    X25, X14, X14
	VUNPCKHPD X26, X26, X26
	VADDSD    X26, X14, X14
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $4, R13
	CMPQ R13, $4
	JGE  exp_pair
exp_one:
	TESTQ R13, R13
	JZ    done
	CMPQ  R13, $2
	JGE   exp_one_load
	MOVL  $0x0F, AX
	KMOVB AX, K6
exp_one_load:
	// Zeros, not dists, in the lanes outside K6: they pass the range check.
	VMOVUPD.Z (DI), K6, Z0
	EXPNEG8(Z0, Z1, Y2, Z3, Y9, Z10, (BX))
	VPXORQ  Z5, Z5, Z5
	HALVES8(Z1, Z5)
	VADDSD  X25, X14, X14
	CMPQ R13, $2
	JL   done
	VADDSD  X26, X14, X14
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $2, R13
	JMP  exp_one

done:
	VPMOVQ2M Z15, K3
	KORB     K3, K7, K7
	KORTESTB K7, K7
	SETEQ    ok+64(FP)
	VMOVSD   X14, sum+56(FP)
	VZEROUPPER
	RET
