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
//
// Where useAVX512 holds, the 8-lane routines below run instead.
// stepAVX512 is stepAVX with opmask picks, its lanes reduced here: the
// extreme value, the lowest index among the lanes equal to it, and the
// value read from that lane. wss2AVX512 has no division. Pass 1 stores
// each candidate's estimate b²·VRCP14PD(a), or NaN where VRCP14PD(a) or the
// estimate leaves [2^-512, 2^512), and keeps each half's largest trusted
// estimate M. Pass 2 lists the survivors, NaN or >= M·(1 − 2^-10), for the
// Go side's exact gains. Survival is guaranteed for every lane with the
// largest exact gain: within the range VRCP14PD errs by less than 2^-14,
// so that lane's estimate is at least (1 − 2^-14)(1 − 2^-53) of its
// quotient and M at most (1 + 2^-14)(1 + 2^-52)(1 + 2^-53) of it, and
// (1 − 2^-10) leaves eight times the margin needed (the proof in full is
// at the solver type in solver.go).

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

// The 8-lane passes (useAVX512). Scalars broadcast from smo8Const<>: the
// lane indices 0..7 at 0, then 2^-512, the bits 62-63 mask, NaN, −Inf,
// +Inf, 1 − 2^-10, the sign bit and the largest int64.
DATA smo8Const<>+0(SB)/8, $0
DATA smo8Const<>+8(SB)/8, $1
DATA smo8Const<>+16(SB)/8, $2
DATA smo8Const<>+24(SB)/8, $3
DATA smo8Const<>+32(SB)/8, $4
DATA smo8Const<>+40(SB)/8, $5
DATA smo8Const<>+48(SB)/8, $6
DATA smo8Const<>+56(SB)/8, $7
DATA smo8Const<>+64(SB)/8, $0x1ff0000000000000
DATA smo8Const<>+72(SB)/8, $0xc000000000000000
DATA smo8Const<>+80(SB)/8, $0x7ff8000000000000
DATA smo8Const<>+88(SB)/8, $0xfff0000000000000
DATA smo8Const<>+96(SB)/8, $0x7ff0000000000000
DATA smo8Const<>+104(SB)/8, $0x3feff80000000000
DATA smo8Const<>+112(SB)/8, $0x8000000000000000
DATA smo8Const<>+120(SB)/8, $0x7fffffffffffffff
GLOBL smo8Const<>(SB), RODATA|NOPTR, $128

// REDUCE stores the pick held by the lanes of V (values) and I (indices):
// the extreme value by OP (VMAXPD or VMINPD) and, among lanes equal to it,
// the lowest index, with the value read from that lane, so a −0 that wins
// stays −0. Z29 holds the largest int64 in every lane. Clobbers Z27, Z28,
// Z30, Z31, K1 and K2.
#define REDUCE(OP, V, I, vout, kout) \
	VSHUFF64X2 $0x4E, V, V, Z27; \
	OP         Z27, V, Z27; \
	VSHUFF64X2 $0xB1, Z27, Z27, Z28; \
	OP         Z28, Z27, Z27; \
	VPERMILPD  $0x55, Z27, Z28; \
	OP         Z28, Z27, Z27; \
	VCMPPD     $0x00, Z27, V, K1; \
	VMOVDQA64  Z29, Z30; \
	VMOVDQA64  I, K1, Z30; \
	VSHUFI64X2 $0x4E, Z30, Z30, Z31; \
	VPMINSQ    Z31, Z30, Z30; \
	VSHUFI64X2 $0xB1, Z30, Z30, Z31; \
	VPMINSQ    Z31, Z30, Z30; \
	VPSHUFD    $0x4E, Z30, Z31; \
	VPMINSQ    Z31, Z30, Z30; \
	VPCMPEQQ   Z30, I, K1, K2; \
	VCOMPRESSPD V, K2, Z31; \
	VMOVSD     X31, vout; \
	VMOVQ      X30, kout

// A8 leaves in Z4 and Z5 the up and the down variable's a at k = AX,
// (Q̄_ii + K_kk) ∓ s2·K_ik, not floored at tau.
#define A8 \
	VADDPD  (R10)(AX*8), Z17, Z9; \
	VMULPD  (R11)(AX*8), Z18, Z10; \
	VSUBPD  Z10, Z9, Z4; \
	VADDPD  Z10, Z9, Z5
// BUP leaves the up variables' b² at k = AX in Z6 and sets K3 to the
// candidates: alpha > 0 and b = gmax + G_k > 0. BDN does the down
// variables: alpha < C and b = gmax − G_{l+k} > 0.
#define BUP \
	VADDPD  (SI)(AX*8), Z16, Z6; \
	VCMPPD  $0x1E, Z21, Z6, K3; \
	VCMPPD  $0x11, (R8)(AX*8), Z21, K3, K3; \
	VMULPD  Z6, Z6, Z6
#define BDN \
	VMOVUPD (DI)(AX*8), Z6; \
	VSUBPD  Z6, Z16, Z6; \
	VCMPPD  $0x1E, Z21, Z6, K3; \
	VCMPPD  $0x1E, (R9)(AX*8), Z19, K3, K3; \
	VMULPD  Z6, Z6, Z6

// EST stores at dst the estimates of the lanes with unfloored a (A) and b²
// (Z6) and folds them into the running maximum M. A candidate (K3) gets
// e = b²·r, r = VRCP14PD(a), when both r and e lie in [2^-512, 2^512) —
// as bits minus those of 2^-512, both below 2^62, so bits 62 and 63 of
// their OR are clear — and NaN otherwise; a <= 0 makes r <= 0 or ±Inf, so
// such a lane is NaN. A lane that is no candidate gets +0. NaN never moves
// M: VMAXPD returns its second source when either is NaN.
#define EST(A, dst, M) \
	VRCP14PD A, Z7; \
	VMULPD.Z Z7, Z6, K3, Z8; \
	VPSUBQ   Z22, Z8, Z9; \
	VPSUBQ   Z22, Z7, Z10; \
	VPORQ    Z10, Z9, Z9; \
	VPTESTMQ Z23, Z9, K3, K4; \
	VMOVAPD  Z24, K4, Z8; \
	VMOVUPD  Z8, dst; \
	VMAXPD   M, Z8, M

// BCASTMAX sets every lane of V to the largest lane of V. Clobbers Z27.
#define BCASTMAX(V) \
	VSHUFF64X2 $0x4E, V, V, Z27; \
	VMAXPD     Z27, V, V; \
	VSHUFF64X2 $0xB1, V, V, Z27; \
	VMAXPD     Z27, V, V; \
	VPERMILPD  $0x55, V, Z27; \
	VMAXPD     Z27, V, V

// THRESH turns the broadcast maximum V into its half's survivor threshold,
// V·(1 − 2^-10), or +Inf when the half has no trusted candidate (V is +0
// or −Inf, below 2^-512), so that only the NaN lanes survive.
#define THRESH(V) \
	VCMPPD  $0x11, Z22, V, K1; \
	VMULPD  Z26, V, V; \
	VMOVAPD Z15, K1, V

// func wss2AVX512(gu, gd, au, ad, diag, ri, est *float64, n int, gmax, qi, s2, c float64, surv *int) (nUp, nDn int)
//
// Pass 1 writes the estimates of the up variables to est[:n] and of the
// down variables to est[n:2n] and keeps each half's maximum. Pass 2 visits
// the 8-blocks where some lane of either half survives — its estimate is
// NaN or not below the threshold, NGT_UQ — and appends the survivors' k to
// surv[:n] (up) and surv[n:2n] (down) in increasing order. Z0/Z1: the
// maxima, then the thresholds. Z16..Z19: gmax, qi, s2, C; Z21..Z25: 0,
// 2^-512, the bits 62-63 mask, NaN, −Inf; Z26 = 1 − 2^-10, Z15 = +Inf.
TEXT ·wss2AVX512(SB), NOSPLIT, $0-120
	MOVQ gu+0(FP), SI
	MOVQ gd+8(FP), DI
	MOVQ au+16(FP), R8
	MOVQ ad+24(FP), R9
	MOVQ diag+32(FP), R10
	MOVQ ri+40(FP), R11
	MOVQ est+48(FP), R12
	MOVQ n+56(FP), CX
	LEAQ (R12)(CX*8), R13
	VBROADCASTSD gmax+64(FP), Z16
	VBROADCASTSD qi+72(FP), Z17
	VBROADCASTSD s2+80(FP), Z18
	VBROADCASTSD c+88(FP), Z19
	VPXORQ       Z21, Z21, Z21
	VPBROADCASTQ smo8Const<>+64(SB), Z22
	VPBROADCASTQ smo8Const<>+72(SB), Z23
	VBROADCASTSD smo8Const<>+80(SB), Z24
	VBROADCASTSD smo8Const<>+88(SB), Z25
	VBROADCASTSD smo8Const<>+96(SB), Z15
	VBROADCASTSD smo8Const<>+104(SB), Z26
	VMOVAPD Z25, Z0
	VMOVAPD Z25, Z1
	XORQ AX, AX

wss2_est:
	A8
	BUP
	EST(Z4, (R12)(AX*8), Z0)
	BDN
	EST(Z5, (R13)(AX*8), Z1)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  wss2_est

	BCASTMAX(Z0)
	BCASTMAX(Z1)
	THRESH(Z0)
	THRESH(Z1)
	MOVQ surv+96(FP), BX
	LEAQ (BX)(CX*8), DX
	XORQ AX, AX

wss2_filter:
	VCMPPD   $0x1A, (R12)(AX*8), Z0, K5
	VCMPPD   $0x1A, (R13)(AX*8), Z1, K6
	KORTESTB K5, K6
	JZ       wss2_next
	VPBROADCASTQ AX, Z14
	VPADDQ   smo8Const<>+0(SB), Z14, Z14
	VPCOMPRESSQ Z14, K5, (BX)
	KMOVB    K5, R14
	POPCNTL  R14, R14
	LEAQ     (BX)(R14*8), BX
	VPCOMPRESSQ Z14, K6, (DX)
	KMOVB    K6, R14
	POPCNTL  R14, R14
	LEAQ     (DX)(R14*8), DX
wss2_next:
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  wss2_filter

	MOVQ surv+96(FP), R14
	SUBQ R14, BX
	SHRQ $3, BX
	MOVQ BX, nUp+104(FP)
	LEAQ (R14)(CX*8), R14
	SUBQ R14, DX
	SHRQ $3, DX
	MOVQ DX, nDn+112(FP)
	VZEROUPPER
	RET

// func stepAVX512(gu, gd, au, ad, ri, rj *float64, n int, ci, cj, c float64, out *[2]violators)
//
// stepAVX's pass eight k at a time, each pick moved under an opmask, and
// the lanes reduced here. Z0/Z1: the up half's gmax pick, Z2/Z3 its gmin
// pick, Z4..Z7 the down half's; Z8: k per lane; Z15: zero; Z20..Z23: ci,
// cj, C and the sign bit; Z24: 8 per lane.
TEXT ·stepAVX512(SB), NOSPLIT, $0-88
	MOVQ gu+0(FP), SI
	MOVQ gd+8(FP), DI
	MOVQ au+16(FP), R8
	MOVQ ad+24(FP), R9
	MOVQ ri+32(FP), R10
	MOVQ rj+40(FP), R11
	MOVQ n+48(FP), CX
	VBROADCASTSD ci+56(FP), Z20
	VBROADCASTSD cj+64(FP), Z21
	VBROADCASTSD c+72(FP), Z22
	VBROADCASTSD smo8Const<>+112(SB), Z23
	MOVQ $8, AX
	VPBROADCASTQ AX, Z24
	VPBROADCASTQ smo8Const<>+120(SB), Z29
	VBROADCASTSD smo8Const<>+88(SB), Z0
	VMOVAPD Z0, Z4
	VBROADCASTSD smo8Const<>+96(SB), Z2
	VMOVAPD Z2, Z6
	VPTERNLOGQ $0xFF, Z1, Z1, Z1
	VMOVDQA64 Z1, Z3
	VMOVDQA64 Z1, Z5
	VMOVDQA64 Z1, Z7
	VMOVDQU64 smo8Const<>+0(SB), Z8
	VPXORQ Z15, Z15, Z15
	XORQ AX, AX

step8_loop:
	// a = K_ik·ci and b = K_jk·cj, each rounded; G_k = (G_k + a) + b and
	// G_{l+k} = (G_{l+k} − a) − b.
	VMULPD  (R10)(AX*8), Z20, Z9
	VMULPD  (R11)(AX*8), Z21, Z10
	VADDPD  (SI)(AX*8), Z9, Z11
	VADDPD  Z10, Z11, Z11
	VMOVUPD Z11, (SI)(AX*8)
	VMOVUPD (DI)(AX*8), Z12
	VSUBPD  Z9, Z12, Z12
	VSUBPD  Z10, Z12, Z12
	VMOVUPD Z12, (DI)(AX*8)
	VPXORQ  Z23, Z11, Z11 // −G_k
	VMOVUPD (R8)(AX*8), Z13
	VMOVUPD (R9)(AX*8), Z14

	// Up variable: in I_up while alpha < C, in I_low while alpha > 0.
	VCMPPD    $0x11, Z22, Z13, K1
	VCMPPD    $0x1E, Z0, Z11, K1, K1
	VMOVAPD   Z11, K1, Z0
	VMOVDQA64 Z8, K1, Z1
	VCMPPD    $0x1E, Z15, Z13, K2
	VCMPPD    $0x11, Z2, Z11, K2, K2
	VMOVAPD   Z11, K2, Z2
	VMOVDQA64 Z8, K2, Z3

	// Down variable: in I_up while alpha > 0, in I_low while alpha < C.
	VCMPPD    $0x1E, Z15, Z14, K3
	VCMPPD    $0x1E, Z4, Z12, K3, K3
	VMOVAPD   Z12, K3, Z4
	VMOVDQA64 Z8, K3, Z5
	VCMPPD    $0x11, Z22, Z14, K4
	VCMPPD    $0x11, Z6, Z12, K4, K4
	VMOVAPD   Z12, K4, Z6
	VMOVDQA64 Z8, K4, Z7

	VPADDQ Z24, Z8, Z8
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  step8_loop

	// violators: gmax at 0, gmin at 8, i at 16, j at 24; the down half's
	// 32 bytes on.
	MOVQ out+80(FP), DX
	REDUCE(VMAXPD, Z0, Z1, 0(DX), 16(DX))
	REDUCE(VMINPD, Z2, Z3, 8(DX), 24(DX))
	REDUCE(VMAXPD, Z4, Z5, 32(DX), 48(DX))
	REDUCE(VMINPD, Z6, Z7, 40(DX), 56(DX))
	VZEROUPPER
	RET
