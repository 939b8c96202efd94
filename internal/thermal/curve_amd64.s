//go:build amd64 && !noasm

#include "textflag.h"

// Rows of curveLanes (curve_amd64.go), 32 bytes each, off R9.
#define MANT 0(R9)
#define HALF 32(R9)
#define TWO52 64(R9)
#define TWO52K 96(R9)
#define HSQRT2 128(R9)
#define ONE 160(R9)
#define TWO 192(R9)
#define L7 224(R9)
#define L5 256(R9)
#define L3 288(R9)
#define L1 320(R9)
#define L6 352(R9)
#define L4 384(R9)
#define L2 416(R9)
#define LN2LO 448(R9)
#define LN2HI 480(R9)
#define FRAC 512(R9)
#define LOG2E 544(R9)
#define LN2U 576(R9)
#define LN2L 608(R9)
#define SIXTEENTH 640(R9)
#define C8 672(R9)
#define C7 704(R9)
#define C6 736(R9)
#define C5 768(R9)
#define C4 800(R9)
#define C3 832(R9)
#define BIAS 864(R9)
#define ONEQ 896(R9)
#define LO 928(R9)

// func utilCurveLanes(dst, src *float64, blocks int) (inRange bool)
//
// One block of four lanes per iteration. Per lane, x = src[i]:
//   log: math's archLog (log_amd64.s), no FMA; its DIVSD is VDIVPD and its
//        k, an exact integer, is made by the 2^52 trick instead of CVTSL2SD.
//   y = curveFrac·log
//   a = exp(y): the FMA branch of math's archExp (exp_amd64.s); CVTSD2SL is
//       VCVTPD2DQ, rounding by MXCSR as it does. For x in [2^-800, 1) the
//       exponent n is in [-200, 0], so archExp's overflow and denormal
//       branches are never taken.
//   dst[i] = (a·m)·2^e, m and e being Frexp(x).
// Y15 collects, per lane, whether every x was in [2^-800, 1).
TEXT ·utilCurveLanes(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	LEAQ ·curveLanes(SB), R9
	VPCMPEQQ Y15, Y15, Y15

loop:
	VMOVUPD (SI), Y0
	VCMPPD  $0x1D, LO, Y0, Y1       // x >= 2^-800 (GE_OQ)
	VANDPD  Y1, Y15, Y15
	VCMPPD  $0x11, ONE, Y0, Y1      // x < 1 (LT_OQ)
	VANDPD  Y1, Y15, Y15

	// f1, k := Frexp(x): Y2 = f1 (kept as m for the end), Y3 = biased
	// exponent (int64), Y4 = k = biased - 0x3FE
	VANDPD  MANT, Y0, Y2
	VORPD   HALF, Y2, Y2
	VPSRLQ  $52, Y0, Y3
	VPOR    TWO52, Y3, Y4
	VSUBPD  TWO52K, Y4, Y4
	// if f1 <= √2/2 { k -= 1; f1 *= 2 } (archLog's CMPSD ..., 5)
	VCMPPD  $0x12, HSQRT2, Y2, Y5   // LE_OQ
	VANDPD  ONE, Y5, Y5
	VSUBPD  Y5, Y4, Y4
	VADDPD  ONE, Y5, Y5
	VMULPD  Y5, Y2, Y6
	// f := f1 - 1; s := f / (2 + f); s2 := s*s; s4 := s2*s2
	VSUBPD  ONE, Y6, Y6             // Y6 = f
	VADDPD  TWO, Y6, Y5
	VDIVPD  Y5, Y6, Y7              // Y7 = s
	VMULPD  Y7, Y7, Y8              // Y8 = s2
	VMULPD  Y8, Y8, Y9              // Y9 = s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD  L7, Y9, Y5
	VADDPD  L5, Y5, Y5
	VMULPD  Y9, Y5, Y5
	VADDPD  L3, Y5, Y5
	VMULPD  Y9, Y5, Y5
	VADDPD  L1, Y5, Y5
	VMULPD  Y5, Y8, Y8              // Y8 = t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD  L6, Y9, Y5
	VADDPD  L4, Y5, Y5
	VMULPD  Y9, Y5, Y5
	VADDPD  L2, Y5, Y5
	VMULPD  Y5, Y9, Y9              // Y9 = t2
	VADDPD  Y9, Y8, Y8              // Y8 = R
	// hfsq := 0.5 * f * f
	VMULPD  HALF, Y6, Y5
	VMULPD  Y6, Y5, Y5              // Y5 = hfsq
	// log = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD  Y5, Y8, Y8
	VMULPD  Y8, Y7, Y7
	VMULPD  LN2LO, Y4, Y8
	VADDPD  Y8, Y7, Y7
	VSUBPD  Y7, Y5, Y5
	VSUBPD  Y6, Y5, Y5
	VMULPD  LN2HI, Y4, Y4
	VSUBPD  Y5, Y4, Y4              // Y4 = log x

	VMULPD  FRAC, Y4, Y4            // Y4 = y

	// exp(y), archExp's FMA branch: n = round(y·log2(e)) in X6
	VMULPD  LOG2E, Y4, Y5
	VCVTPD2DQY Y5, X6
	VCVTDQ2PD X6, Y5
	VFNMADD231PD LN2U, Y5, Y4
	VFNMADD231PD LN2L, Y5, Y4
	VMULPD  SIXTEENTH, Y4, Y4
	VMOVUPD C8, Y5
	VFMADD213PD C7, Y4, Y5
	VFMADD213PD C6, Y4, Y5
	VFMADD213PD C5, Y4, Y5
	VFMADD213PD C4, Y4, Y5
	VFMADD213PD C3, Y4, Y5
	VFMADD213PD HALF, Y4, Y5
	VFMADD213PD ONE, Y4, Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  TWO, Y4, Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  TWO, Y4, Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  TWO, Y4, Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  TWO, Y4, Y5
	VFMADD213PD ONE, Y5, Y4
	// × 2^n
	VPMOVSXDQ X6, Y6
	VPADDQ  BIAS, Y6, Y6
	VPSLLQ  $52, Y6, Y6
	VMULPD  Y6, Y4, Y4              // Y4 = a

	// (a·m)·2^e, 2^e's bits being (biased exponent + 1) << 52
	VMULPD  Y2, Y4, Y4
	VPADDQ  ONEQ, Y3, Y3
	VPSLLQ  $52, Y3, Y3
	VMULPD  Y3, Y4, Y4
	VMOVUPD Y4, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VMOVMSKPD Y15, AX
	CMPL AX, $0xF
	SETEQ inRange+24(FP)
	VZEROUPPER
	RET
