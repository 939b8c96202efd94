// AVX2 kernels for the two passes of an SMO iteration (solver.go): WSS2's
// scan for j and the gradient update fused with the first-order scan. Each
// runs its scalar loop four k at a time and gives the same bits: the same
// operations in the same order per lane, no FMA, b²/a by a true division,
// ordered-quiet compares (a NaN lane never wins, as with Go's < and >),
// and −G by flipping the sign bit, so −0 stays −0. Every pick keeps a
// value and an index per lane and moves only on a strict compare, so each
// lane holds the first occurrence of its extreme; the Go side reduces the
// lanes to the lowest index among equal values. Only used when useAVX
// (dist_amd64.go) holds; stepScalar and wss2Scalar are the portable path.

//go:build amd64 && !noasm

#include "textflag.h"

// Rows of four lanes: the lane indices 0..3, the step 4, the sign bit,
// +Inf, −Inf and tau.
DATA smoConst<>+0(SB)/8, $0
DATA smoConst<>+8(SB)/8, $1
DATA smoConst<>+16(SB)/8, $2
DATA smoConst<>+24(SB)/8, $3
DATA smoConst<>+32(SB)/8, $4
DATA smoConst<>+40(SB)/8, $4
DATA smoConst<>+48(SB)/8, $4
DATA smoConst<>+56(SB)/8, $4
DATA smoConst<>+64(SB)/8, $0x8000000000000000
DATA smoConst<>+72(SB)/8, $0x8000000000000000
DATA smoConst<>+80(SB)/8, $0x8000000000000000
DATA smoConst<>+88(SB)/8, $0x8000000000000000
DATA smoConst<>+96(SB)/8, $0x7ff0000000000000
DATA smoConst<>+104(SB)/8, $0x7ff0000000000000
DATA smoConst<>+112(SB)/8, $0x7ff0000000000000
DATA smoConst<>+120(SB)/8, $0x7ff0000000000000
DATA smoConst<>+128(SB)/8, $0xfff0000000000000
DATA smoConst<>+136(SB)/8, $0xfff0000000000000
DATA smoConst<>+144(SB)/8, $0xfff0000000000000
DATA smoConst<>+152(SB)/8, $0xfff0000000000000
DATA smoConst<>+160(SB)/8, $1e-12
DATA smoConst<>+168(SB)/8, $1e-12
DATA smoConst<>+176(SB)/8, $1e-12
DATA smoConst<>+184(SB)/8, $1e-12
GLOBL smoConst<>(SB), RODATA|NOPTR, $192

// PICK moves the lanes of mask M to the value V and the index Y8 in the
// pick held by YV and YK.
#define PICK(M, V, YV, YK) \
	VBLENDVPD M, V, YV, YV; \
	VBLENDVPD M, Y8, YK, YK

// func wss2AVX(gu, gd, au, ad, diag, ri *float64, n int, gmax, qi, s2, c float64, out *[2]lanes)
//
// Y0/Y1: the up pick (gain, k); Y2/Y3: the down pick; Y8: k per lane.
TEXT ·wss2AVX(SB), NOSPLIT, $0-96
	MOVQ gu+0(FP), SI
	MOVQ gd+8(FP), DI
	MOVQ au+16(FP), R8
	MOVQ ad+24(FP), R9
	MOVQ diag+32(FP), R10
	MOVQ ri+40(FP), R11
	MOVQ n+48(FP), CX
	VBROADCASTSD gmax+56(FP), Y4
	VBROADCASTSD qi+64(FP), Y5
	VBROADCASTSD s2+72(FP), Y6
	VBROADCASTSD c+80(FP), Y7
	VMOVUPD smoConst<>+160(SB), Y9  // tau
	VXORPD  Y10, Y10, Y10
	VMOVUPD smoConst<>+128(SB), Y0
	VMOVUPD Y0, Y2
	VPCMPEQQ Y1, Y1, Y1
	VMOVDQU Y1, Y3
	VMOVDQU smoConst<>+0(SB), Y8
	XORQ AX, AX

wss2_loop:
	// a = (Q̄_ii + K_kk) ∓ s2·K_ik for the up and the down variable, each
	// floored at tau where a <= 0.
	VADDPD  (R10)(AX*8), Y5, Y11
	VMULPD  (R11)(AX*8), Y6, Y12
	VSUBPD  Y12, Y11, Y13           // a up
	VADDPD  Y12, Y11, Y11           // a down
	VCMPPD  $0x12, Y10, Y13, Y12    // LE_OQ
	VBLENDVPD Y12, Y9, Y13, Y13
	VCMPPD  $0x12, Y10, Y11, Y12
	VBLENDVPD Y12, Y9, Y11, Y11

	// Up: b = gmax + G_k; candidate while alpha_k > 0 and b > 0.
	VADDPD  (SI)(AX*8), Y4, Y12
	VMULPD  Y12, Y12, Y14
	VDIVPD  Y13, Y14, Y14           // gain = b²/a
	VCMPPD  $0x1E, Y10, Y12, Y12    // b > 0 (GT_OQ)
	VCMPPD  $0x1E, Y0, Y14, Y13     // gain > best
	VANDPD  Y13, Y12, Y12
	VCMPPD  $0x11, (R8)(AX*8), Y10, Y13 // 0 < alpha (LT_OQ)
	VANDPD  Y13, Y12, Y12
	PICK(Y12, Y14, Y0, Y1)

	// Down: b = gmax − G_{l+k}; candidate while alpha_{l+k} < C and b > 0.
	VMOVUPD (DI)(AX*8), Y12
	VSUBPD  Y12, Y4, Y12
	VMULPD  Y12, Y12, Y14
	VDIVPD  Y11, Y14, Y14
	VCMPPD  $0x1E, Y10, Y12, Y12
	VCMPPD  $0x1E, Y2, Y14, Y13
	VANDPD  Y13, Y12, Y12
	VCMPPD  $0x1E, (R9)(AX*8), Y7, Y13 // C > alpha
	VANDPD  Y13, Y12, Y12
	PICK(Y12, Y14, Y2, Y3)

	VPADDQ  smoConst<>+32(SB), Y8, Y8
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  wss2_loop

	MOVQ out+88(FP), DX
	VMOVUPD Y0, 0(DX)
	VMOVDQU Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VZEROUPPER
	RET

// func stepAVX(gu, gd, au, ad, ri, rj *float64, n int, ci, cj, c float64, out *[4]lanes)
//
// Y0/Y1: the up half's gmax pick, Y2/Y3 its gmin pick, Y4..Y7 the down
// half's; Y8: k per lane; Y15: zero. ci, cj and C are broadcast to the
// frame at 0, 32 and 64(SP).
TEXT ·stepAVX(SB), NOSPLIT, $96-88
	MOVQ gu+0(FP), SI
	MOVQ gd+8(FP), DI
	MOVQ au+16(FP), R8
	MOVQ ad+24(FP), R9
	MOVQ ri+32(FP), R10
	MOVQ rj+40(FP), R11
	MOVQ n+48(FP), CX
	VBROADCASTSD ci+56(FP), Y9
	VMOVUPD Y9, 0(SP)
	VBROADCASTSD cj+64(FP), Y9
	VMOVUPD Y9, 32(SP)
	VBROADCASTSD c+72(FP), Y9
	VMOVUPD Y9, 64(SP)
	VMOVUPD smoConst<>+128(SB), Y0
	VMOVUPD Y0, Y4
	VMOVUPD smoConst<>+96(SB), Y2
	VMOVUPD Y2, Y6
	VPCMPEQQ Y1, Y1, Y1
	VMOVDQU Y1, Y3
	VMOVDQU Y1, Y5
	VMOVDQU Y1, Y7
	VMOVDQU smoConst<>+0(SB), Y8
	VXORPD  Y15, Y15, Y15
	XORQ AX, AX

step_loop:
	// a = K_ik·ci and b = K_jk·cj, each rounded; G_k = (G_k + a) + b and
	// G_{l+k} = (G_{l+k} − a) − b.
	VMOVUPD (R10)(AX*8), Y9
	VMULPD  0(SP), Y9, Y9
	VMOVUPD (R11)(AX*8), Y10
	VMULPD  32(SP), Y10, Y10
	VMOVUPD (SI)(AX*8), Y11
	VADDPD  Y9, Y11, Y11
	VADDPD  Y10, Y11, Y11
	VMOVUPD Y11, (SI)(AX*8)
	VMOVUPD (DI)(AX*8), Y12
	VSUBPD  Y9, Y12, Y12
	VSUBPD  Y10, Y12, Y12
	VMOVUPD Y12, (DI)(AX*8)
	VXORPD  smoConst<>+64(SB), Y11, Y11 // −G_k
	VMOVUPD (R8)(AX*8), Y13
	VMOVUPD (R9)(AX*8), Y14

	// Up variable: in I_up while alpha < C, in I_low while alpha > 0.
	VCMPPD  $0x11, 64(SP), Y13, Y9  // alpha < C (LT_OQ)
	VCMPPD  $0x1E, Y0, Y11, Y10     // −G > gmax (GT_OQ)
	VANDPD  Y10, Y9, Y9
	PICK(Y9, Y11, Y0, Y1)
	VCMPPD  $0x1E, Y15, Y13, Y9     // alpha > 0
	VCMPPD  $0x11, Y2, Y11, Y10     // −G < gmin
	VANDPD  Y10, Y9, Y9
	PICK(Y9, Y11, Y2, Y3)

	// Down variable: in I_up while alpha > 0, in I_low while alpha < C.
	VCMPPD  $0x1E, Y15, Y14, Y9
	VCMPPD  $0x1E, Y4, Y12, Y10
	VANDPD  Y10, Y9, Y9
	PICK(Y9, Y12, Y4, Y5)
	VCMPPD  $0x11, 64(SP), Y14, Y9
	VCMPPD  $0x11, Y6, Y12, Y10
	VANDPD  Y10, Y9, Y9
	PICK(Y9, Y12, Y6, Y7)

	VPADDQ  smoConst<>+32(SB), Y8, Y8
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  step_loop

	MOVQ out+80(FP), DX
	VMOVUPD Y0, 0(DX)
	VMOVDQU Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVDQU Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVDQU Y7, 224(DX)
	VZEROUPPER
	RET
