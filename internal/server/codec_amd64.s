//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The integer codec's kernels (see codec_amd64.go). Both are leaves with
// no frame, use nothing beyond the amd64 baseline (the vector compares
// are SSE2), and read and write only inside the slices they are passed.

// The constants of shortIntsGo's SWAR steps and of parseDigits' three
// multiply steps, read as memory operands.
DATA decZeros<>+0(SB)/8, $const_swarZeros
GLOBL decZeros<>(SB), RODATA|NOPTR, $8
DATA decLow7<>+0(SB)/8, $const_swarLow7
GLOBL decLow7<>(SB), RODATA|NOPTR, $8
DATA decOver9<>+0(SB)/8, $const_swarOver9
GLOBL decOver9<>(SB), RODATA|NOPTR, $8
DATA decPairs<>+0(SB)/8, $0x00ff00ff00ff00ff
GLOBL decPairs<>(SB), RODATA|NOPTR, $8
DATA decQuads<>+0(SB)/8, $0x0000ffff0000ffff
GLOBL decQuads<>(SB), RODATA|NOPTR, $8
DATA decOcts<>+0(SB)/8, $0x0000271000000001 // 1 + 10000<<32
GLOBL decOcts<>(SB), RODATA|NOPTR, $8

// decWidth holds three rows of seven words, entry nd-1 of each for an
// element of nd digits: the word's top nd lanes, their top bits, and the
// least nd-digit value without a leading zero (0 for one digit).
DATA decWidth<>+0(SB)/8, $0xff00000000000000
DATA decWidth<>+8(SB)/8, $0xffff000000000000
DATA decWidth<>+16(SB)/8, $0xffffff0000000000
DATA decWidth<>+24(SB)/8, $0xffffffff00000000
DATA decWidth<>+32(SB)/8, $0xffffffffff000000
DATA decWidth<>+40(SB)/8, $0xffffffffffff0000
DATA decWidth<>+48(SB)/8, $0xffffffffffffff00
DATA decWidth<>+56(SB)/8, $0x8000000000000000
DATA decWidth<>+64(SB)/8, $0x8080000000000000
DATA decWidth<>+72(SB)/8, $0x8080800000000000
DATA decWidth<>+80(SB)/8, $0x8080808000000000
DATA decWidth<>+88(SB)/8, $0x8080808080000000
DATA decWidth<>+96(SB)/8, $0x8080808080800000
DATA decWidth<>+104(SB)/8, $0x8080808080808000
DATA decWidth<>+112(SB)/8, $0
DATA decWidth<>+120(SB)/8, $10
DATA decWidth<>+128(SB)/8, $100
DATA decWidth<>+136(SB)/8, $1000
DATA decWidth<>+144(SB)/8, $10000
DATA decWidth<>+152(SB)/8, $100000
DATA decWidth<>+160(SB)/8, $1000000
GLOBL decWidth<>(SB), RODATA|NOPTR, $168

// func scanShortInt(d []byte, base int, mask uint64, start int, out []int, k int) (nbase int, nmask uint64, nstart, nk int)
TEXT ·scanShortInt(SB), NOSPLIT, $0-112
	JMP ·scanShort64(SB)

// func scanShort64(d []byte, base int, mask uint64, start int, out []int64, k int) (nbase int, nmask uint64, nstart, nk int)
//
// Registers: SI d, R9 base, BX mask, DX start, DI out, R11 k, R12 the
// blocks left to read, R10 decWidth, X0 ',' in every lane. Reads: a
// block at base only while base+64 ≤ len(d), and the word
// d[comma-8:comma] only for a comma < len(d) with comma ≥ 8. Writes:
// out[k] only for k < len(out).
TEXT ·scanShort64(SB), NOSPLIT, $0-112
	MOVQ d_base+0(FP), SI
	MOVQ base+24(FP), R9
	MOVQ mask+32(FP), BX
	MOVQ start+40(FP), DX
	MOVQ out_base+48(FP), DI
	MOVQ k+72(FP), R11
	MOVQ $const_decodeBlocks, R12
	LEAQ decWidth<>(SB), R10
	MOVQ $const_swarCommas, AX
	MOVQ AX, X0
	PUNPCKLQDQ X0, X0
	TESTQ BX, BX
	JNE elem

block:
	// The next block, while the call has one left and the block ends
	// inside d: its comma mask from PCMPEQB and PMOVMSKB.
	SUBQ $1, R12
	JCS done
	ADDQ $64, R9
	LEAQ 64(R9), AX
	CMPQ AX, d_len+8(FP)
	JGT done
	MOVOU (SI)(R9*1), X1
	MOVOU 16(SI)(R9*1), X2
	MOVOU 32(SI)(R9*1), X3
	MOVOU 48(SI)(R9*1), X4
	PCMPEQB X0, X1
	PCMPEQB X0, X2
	PCMPEQB X0, X3
	PCMPEQB X0, X4
	PMOVMSKB X1, BX
	PMOVMSKB X2, AX
	SHLQ $16, AX
	ORQ AX, BX
	PMOVMSKB X3, AX
	SHLQ $32, AX
	ORQ AX, BX
	PMOVMSKB X4, AX
	SHLQ $48, AX
	ORQ AX, BX
	JEQ block

elem:
	// The element from start to the mask's first comma, R13.
	BSFQ BX, R13
	ADDQ R9, R13
	XORL R14, R14
	CMPB (SI)(DX*1), $0x2d
	SETEQ R14
	NEGQ R14 // -1 after a '-', else 0
	LEAQ -1(R13)(R14*1), CX
	SUBQ DX, CX // nd-1, for nd digits
	CMPQ CX, $7
	JCC done // not one to seven digits
	CMPQ R13, $8
	JLT done // no word ends at the comma
	MOVQ -8(SI)(R13*1), AX
	XORQ decZeros<>(SB), AX // x: the word's lanes less '0'
	MOVQ AX, R8
	ANDQ decLow7<>(SB), R8
	ADDQ decOver9<>(SB), R8
	ORQ AX, R8
	ANDQ 56(R10)(CX*8), R8
	JNE done // a digit lane that holds no digit
	ANDQ (R10)(CX*8), AX // the digits, the lanes below them cleared

	// parseDigits.
	IMUL3Q $0xa01, AX, AX // 1 + 10<<8
	SHRQ $8, AX
	ANDQ decPairs<>(SB), AX
	IMUL3Q $0x640001, AX, AX // 1 + 100<<16
	SHRQ $16, AX
	ANDQ decQuads<>(SB), AX
	IMULQ decOcts<>(SB), AX
	SHRQ $32, AX
	CMPQ AX, 112(R10)(CX*8)
	JCS done // a leading zero: fewer significant digits than nd
	XORQ R14, AX
	SUBQ R14, AX // the sign
	CMPQ R11, out_len+56(FP)
	JCC nostore
	MOVQ AX, (DI)(R11*8)

next:
	INCQ R11
	LEAQ 1(R13), DX
	LEAQ -1(BX), AX
	ANDQ AX, BX
	JNE elem
	JMP block

nostore:
	// A nil out only counts; any other out too short to take k stops
	// here, and the Go loop's bounds check refuses it.
	TESTQ DI, DI
	JNE done
	JMP next

done:
	MOVQ R9, nbase+80(FP)
	MOVQ BX, nmask+88(FP)
	MOVQ DX, nstart+96(FP)
	MOVQ R11, nk+104(FP)
	RET

// func formatShort(b []byte, n int, v []int64) (nn, i int)
//
// Registers: SI b, DX n, R8 len(b)-10, DI v, BX i, R9 len(v), R10
// digitWords, R11 '0' in every lane. Writes: at most the ten bytes
// b[n:n+10] ('-', eight digits' store, ',') per integer, and only while
// n ≤ len(b)-10.
TEXT ·formatShort(SB), NOSPLIT, $0-72
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), R8
	MOVQ n+24(FP), DX
	MOVQ v_base+32(FP), DI
	MOVQ v_len+40(FP), R9
	XORL BX, BX
	SUBQ $10, R8
	JLT fdone
	LEAQ ·digitWords(SB), R10
	MOVQ $const_swarZeros, R11
	MOVQ $0xd1b71759, R12 // ⌈2^45 / 10^4⌉: u*R12>>45 is u/10^4 for u < 10^8
	CMPQ BX, R9
	JGE fdone

floop:
	MOVQ (DI)(BX*8), AX
	MOVQ AX, R13
	SARQ $63, R13 // -1 when negative, else 0
	XORQ R13, AX
	SUBQ R13, AX // u = |x|; MinInt64's is 2^63
	CMPQ AX, $99999999
	JHI fdone // 10^8 or more: strconv's
	CMPQ DX, R8
	JHI fdone // no room for ten more bytes
	MOVB $0x2d, (SI)(DX*1)
	SUBQ R13, DX
	MOVQ AX, R14
	IMULQ R12, R14
	SHRQ $45, R14 // hi = u / 10^4
	IMUL3Q $10000, R14, R13
	SUBQ R13, AX // lo = u - hi*10^4
	MOVL (R10)(R14*4), R14
	MOVL (R10)(AX*4), AX
	SHLQ $32, AX
	ORQ R14, AX // w: the eight digits, most significant lowest
	MOVQ AX, CX
	XORQ R11, CX
	BTSQ $56, CX // the last digit is never a leading zero
	BSFQ CX, CX
	ANDQ $56, CX // 8 × the leading zeros
	SHRQ CX, AX
	MOVQ AX, (SI)(DX*1)
	SHRQ $3, CX
	SUBQ CX, DX
	MOVB $0x2c, 8(SI)(DX*1)
	ADDQ $9, DX
	INCQ BX
	CMPQ BX, R9
	JLT floop

fdone:
	MOVQ DX, nn+56(FP)
	MOVQ BX, i+64(FP)
	RET
