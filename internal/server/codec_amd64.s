//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The integer codec's AVX2 kernels (see codec_amd64.go) and the CPU check
// that chooses them. Each kernel is a leaf that reads and writes only
// inside the slices it is passed. Every instruction on an X or Y
// register is VEX-encoded and every return from a kernel runs
// VZEROUPPER: a legacy SSE instruction among them, or a return that
// leaves the upper halves dirty, makes the CPU save and merge those
// halves around every such instruction, which no test can see but costs
// several times the kernel's own work. TestKernelVEXOnly holds this file
// to that rule.

// decConsts holds the decode kernel's 32-byte rows, each one value in
// every lane: ',', '-', '0' and 9 in every byte; a byte mask of the
// word's first byte, and of all but its last; the multipliers of the
// three parse steps; and the second to fourth words' first byte, where
// a word holds a comma when its element is shorter than eight bytes.
#define ROW(name, off, v) DATA name+off(SB)/8, v; DATA name+(off+8)(SB)/8, v; DATA name+(off+16)(SB)/8, v; DATA name+(off+24)(SB)/8, v
ROW(decConsts<>, 0, $0x2c2c2c2c2c2c2c2c)
ROW(decConsts<>, 32, $0x2d2d2d2d2d2d2d2d)
ROW(decConsts<>, 64, $0x3030303030303030)
ROW(decConsts<>, 96, $0x0909090909090909)
ROW(decConsts<>, 128, $0x00000000000000ff)
ROW(decConsts<>, 160, $0x00ffffffffffffff)
ROW(decConsts<>, 192, $0x010a010a010a010a) // 10, 1: byte pairs to 2 digits
ROW(decConsts<>, 224, $0x0001006400010064) // 100, 1: word pairs to 4 digits
ROW(decConsts<>, 256, $10000)              // dword pairs to 8 digits
DATA decConsts<>+288(SB)/8, $0
DATA decConsts<>+296(SB)/8, $1
DATA decConsts<>+304(SB)/8, $1
DATA decConsts<>+312(SB)/8, $1
GLOBL decConsts<>(SB), RODATA|NOPTR, $320

#define decCommas decConsts<>+0(SB)
#define decDashes decConsts<>+32(SB)
#define decZeros decConsts<>+64(SB)
#define decNines decConsts<>+96(SB)
#define decFirst decConsts<>+128(SB)
#define decNotLast decConsts<>+160(SB)
#define decTens decConsts<>+192(SB)
#define decHundreds decConsts<>+224(SB)
#define decTenK decConsts<>+256(SB)
#define decLanes decConsts<>+288(SB)

// The constants of the one-element path: shortIntsGo's SWAR steps and
// parseDigits' three multiply steps, read as memory operands.
DATA decSWAR<>+0(SB)/8, $const_swarZeros
DATA decSWAR<>+8(SB)/8, $const_swarLow7
DATA decSWAR<>+16(SB)/8, $const_swarOver9
DATA decSWAR<>+24(SB)/8, $0x00ff00ff00ff00ff
DATA decSWAR<>+32(SB)/8, $0x0000ffff0000ffff
DATA decSWAR<>+40(SB)/8, $0x0000271000000001 // 1 + 10000<<32
GLOBL decSWAR<>(SB), RODATA|NOPTR, $48

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

// func scanShort(d []byte, base int, mask uint64, start int, out unsafe.Pointer, n, k, size int) (nbase int, nmask uint64, nstart, nk int)
//
// The kernel takes the elements four at a time: a group is the elements
// that end at the next four commas, which may lie in this block and the
// next. Each element is parsed from the 8-byte word that ends at its
// comma, one word per lane of a Y register; the bytes above the word's
// last comma are the element, unless the word holds none, when the
// element is the whole word if the commas are nine bytes apart. A group
// with any element that is not short, or whose first element does not
// follow a comma, goes to the one-element path, which takes or stops at
// its first element; the next group starts after it.
//
// Registers: SI d, R9 base, BX mask, DX start, DI out, R11 k, R12 the
// blocks the call may still enter; in a group CX, R13, AX and R14 the
// four commas' offsets from base (past 63 in the next block), R8 base-8
// into d, so that the word ending at base+j is at R8+j, and R10 the mask
// after the group (in a group that spans, first the commas from its
// first on, bit j at that offset plus j).
// Y15 ',', Y14 all ones, Y13 '-', Y12 '0' and Y11 9 in every byte, Y10
// zero, Y9 to Y7 the parse steps' multipliers, Y6 all but each word's
// last byte. Reads: a block at base only while base+64 ≤ len(d), and the word
// d[comma-8:comma] only for a comma < len(d) with comma ≥ 8. Writes:
// out[k:k+4] only for k+4 ≤ n, out[k] only for k < n, each element
// size bytes: 8, or 4, when a group's four values are packed from their
// low halves (they are short, so their low halves are their int32s).
TEXT ·scanShort(SB), NOSPLIT, $0-112
	MOVQ d_base+0(FP), SI
	MOVQ base+24(FP), R9
	MOVQ mask+32(FP), BX
	MOVQ start+40(FP), DX
	MOVQ out+48(FP), DI
	MOVQ k+64(FP), R11
	MOVQ $const_decodeBlocks, R12
	VMOVDQU decCommas, Y15
	VPCMPEQB Y14, Y14, Y14
	VMOVDQU decDashes, Y13
	VMOVDQU decZeros, Y12
	VMOVDQU decNines, Y11
	VPXOR Y10, Y10, Y10
	VMOVDQU decTens, Y9
	VMOVDQU decHundreds, Y8
	VMOVDQU decTenK, Y7
	VMOVDQU decNotLast, Y6
	TESTQ BX, BX
	JNE group

block:
	// The next block, while the call may enter one and the block ends
	// inside d: its comma mask.
	SUBQ $1, R12
	JCS done
	ADDQ $64, R9
	LEAQ 64(R9), AX
	CMPQ AX, d_len+8(FP)
	JGT done
	VPCMPEQB (SI)(R9*1), Y15, Y0
	VPCMPEQB 32(SI)(R9*1), Y15, Y1
	VPMOVMSKB Y0, BX
	VPMOVMSKB Y1, AX
	SHLQ $32, AX
	ORQ AX, BX
	JEQ block

group:
	TZCNTQ BX, CX
	LEAQ (R9)(CX*1), R13 // the first comma
	CMPQ R13, $8
	JLT done             // no word ends at the comma
	LEAQ 8(DX), AX
	CMPB (SI)(DX*1), $0x2e
	ADCQ $0, AX          // one more when it starts below '.', as a '-' does (the lanes refuse any other such byte)
	CMPQ R13, AX
	JCC single           // a first element of eight bytes without a sign, or more

	// The other three commas' offsets from base, if they are in this
	// block, and the mask after them, which the next group needs first.
	MOVQ BX, R10
	BLSRQ R10, R10
	TZCNTQ R10, R13
	BLSRQ R10, R10
	TZCNTQ R10, AX
	BLSRQ R10, R10
	TZCNTQ R10, R14
	JCS span
	BLSRQ R10, R10
	LEAQ -8(SI)(R9*1), R8 // the word ending at base+j is at R8+j

words:
	VMOVQ (R8)(CX*1), X0
	VPINSRQ $1, (R8)(R13*1), X0, X0
	VMOVQ (R8)(AX*1), X1
	VPINSRQ $1, (R8)(R14*1), X1, X1
	VINSERTI128 $1, X1, Y0, Y0 // W: the four words

	// H: the bytes at or below each word's last comma.
	VPCMPEQB Y15, Y0, Y1
	VPSRLQ $8, Y1, Y2
	VPOR Y2, Y1, Y1
	VPSRLQ $16, Y1, Y2
	VPOR Y2, Y1, Y1
	VPSRLQ $32, Y1, Y2
	VPOR Y2, Y1, Y1
	VPTEST decLanes, Y1
	JCC long // a word after the first holds no comma

fields:
	VPXOR Y14, Y1, Y1    // E: the element's bytes, at the top of each word
	VPSLLQ $8, Y1, Y2
	VPANDN Y1, Y2, Y3    // its first byte
	VPCMPEQB Y13, Y0, Y4
	VPAND Y3, Y4, Y4     // A: the first byte where it is '-'
	VPCMPEQQ Y3, Y4, Y5  // the negative lanes
	VPXOR Y4, Y1, Y1     // R: the digits' bytes
	VPSUBB Y12, Y0, Y0   // x: each byte less '0'
	VPSUBUSB Y11, Y0, Y2 // not 0 where x is no digit
	VPOR decFirst, Y2, Y2
	VPANDN Y6, Y1, Y3    // neither R nor the last byte
	VPANDN Y2, Y3, Y2    // bad digits: eight, none, or one that is not a digit
	VPSLLQ $8, Y1, Y3
	VPANDN Y1, Y3, Y3    // the first digit
	VPCMPEQB Y10, Y0, Y4
	VPAND Y4, Y3, Y3
	VPAND Y6, Y3, Y3     // a leading zero, unless it is the only digit
	VPOR Y3, Y2, Y2
	VPTEST Y2, Y2
	JNE single

	// The values: the digits in lanes, the bytes below them cleared,
	// joined 1+1, 2+2 and 4+4 by three multiply steps, and signed.
	VPAND Y1, Y0, Y0
	VPMADDUBSW Y9, Y0, Y0
	VPMADDWD Y8, Y0, Y0
	VPMULUDQ Y7, Y0, Y1
	VPSRLQ $32, Y0, Y0
	VPADDQ Y1, Y0, Y0
	VPXOR Y5, Y0, Y0
	VPSUBQ Y5, Y0, Y0
	LEAQ 4(R11), AX
	CMPQ AX, n+56(FP)
	JHI gshort
	CMPQ size+72(FP), $8
	JNE g32
	VMOVDQU Y0, (DI)(R11*8)
	JMP gnext

g32:
	VPSHUFD $0x08, Y0, Y0 // each half's two low dwords first
	VPERMQ $0x08, Y0, Y0  // the halves' pairs side by side
	VMOVDQU X0, (DI)(R11*4)

gnext:
	MOVQ AX, R11
	LEAQ 1(R9)(R14*1), DX
	CMPQ R14, $64
	JCC gspan
	MOVQ R10, BX
	TESTQ BX, BX
	JNE group
	JMP block

gspan:
	// The fourth comma is in the next block: enter it, its commas up to
	// that one cleared.
	ADDQ $64, R9
	DECQ R12
	SUBQ $63, R14
	VPCMPEQB (SI)(R9*1), Y15, Y0
	VPCMPEQB 32(SI)(R9*1), Y15, Y1
	VPMOVMSKB Y0, BX
	VPMOVMSKB Y1, AX
	SHLQ $32, AX
	ORQ AX, BX
	SHRXQ R14, BX, BX
	SHLXQ R14, BX, BX
	TESTQ BX, BX
	JNE group
	JMP block

span:
	// Fewer than four commas are left in the block: the group takes the
	// rest from the next block's, if the call may enter it and it ends
	// inside d. The offsets from base then pass 63.
	TESTQ R12, R12
	JEQ single
	LEAQ 128(R9), AX
	CMPQ AX, d_len+8(FP)
	JGT single
	VPCMPEQB 64(SI)(R9*1), Y15, Y0
	VPCMPEQB 96(SI)(R9*1), Y15, Y1
	VPMOVMSKB Y0, R8
	VPMOVMSKB Y1, AX
	SHLQ $32, AX
	ORQ AX, R8
	MOVQ BX, R10
	SHRQ CX, R8, R10 // the commas from the first on, bit j at its offset plus j
	BLSRQ R10, R10
	TZCNTQ R10, R13
	BLSRQ R10, R10
	TZCNTQ R10, AX
	BLSRQ R10, R10
	TZCNTQ R10, R14
	JCS single       // fewer than four commas within 64 bytes
	ADDQ CX, R13
	ADDQ CX, AX
	ADDQ CX, R14
	LEAQ -8(SI)(R9*1), R8
	JMP words

gshort:
	// A nil out only counts; any other out too short for the group takes
	// its elements one at a time.
	TESTQ DI, DI
	JEQ gnext
	JMP single

long:
	// Take the group only if each element after the first is at most
	// eight bytes: a word of eight without a comma is then the element.
	LEAQ -2(R14), R8
	SUBQ AX, R8
	SUBQ R13, AX
	SUBQ $2, AX
	ORQ AX, R8
	LEAQ -2(R13), AX
	SUBQ CX, AX
	ORQ AX, R8
	CMPQ R8, $8
	JCS fields

single:
	// One element, from start to the mask's first comma, R13.
	LEAQ decWidth<>(SB), R10
	TZCNTQ BX, R13
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
	XORQ decSWAR<>+0(SB), AX // x: the word's lanes less '0'
	MOVQ AX, R8
	ANDQ decSWAR<>+8(SB), R8
	ADDQ decSWAR<>+16(SB), R8
	ORQ AX, R8
	ANDQ 56(R10)(CX*8), R8
	JNE done // a digit lane that holds no digit
	ANDQ (R10)(CX*8), AX // the digits, the lanes below them cleared

	// parseDigits.
	IMUL3Q $0xa01, AX, AX // 1 + 10<<8
	SHRQ $8, AX
	ANDQ decSWAR<>+24(SB), AX
	IMUL3Q $0x640001, AX, AX // 1 + 100<<16
	SHRQ $16, AX
	ANDQ decSWAR<>+32(SB), AX
	IMULQ decSWAR<>+40(SB), AX
	SHRQ $32, AX
	CMPQ AX, 112(R10)(CX*8)
	JCS done // a leading zero: fewer significant digits than nd
	XORQ R14, AX
	SUBQ R14, AX // the sign
	CMPQ R11, n+56(FP)
	JCC nostore
	CMPQ size+72(FP), $8
	JNE s32
	MOVQ AX, (DI)(R11*8)
	JMP next

s32:
	MOVL AX, (DI)(R11*4)

next:
	INCQ R11
	LEAQ 1(R13), DX
	BLSRQ BX, BX
	JNE group
	JMP block

nostore:
	// A nil out only counts; any other out too short to take k stops
	// here, and the Go loop's bounds check refuses it.
	TESTQ DI, DI
	JNE done
	JMP next

done:
	VZEROUPPER
	MOVQ R9, nbase+80(FP)
	MOVQ BX, nmask+88(FP)
	MOVQ DX, nstart+96(FP)
	MOVQ R11, nk+104(FP)
	RET

// encConsts holds the encode kernel's 32-byte rows: the bias and bound
// of the |x| < 10^8 test (x+10^8-1+2^63 > 2·10^8-2-2^63, signed, for
// every other x); the multipliers that split u < 10^8 into its
// 4+4 digits (⌈2^45/10^4⌉ and 10^4), 4-digit words into 2+2 (5243, used
// with a right shift by 19, and 100) and 2-digit words into 1+1 (6554,
// used with a right shift by 16, and 2559, which gives y<<8 - a*2559 =
// a + (y-10a)<<8 for a = y/10); '0' in every byte, all but each word's
// last byte, 1 and 3 in every byte; 9; each lane's tail word less its
// text's offset (',' | 16<<8 | '-'<<56); 9 in every byte; and each
// 16-byte lane's byte indexes.
ROW(encConsts<>, 0, $0x8000000005f5e0ff)
ROW(encConsts<>, 32, $0x800000000bebc1fe)
ROW(encConsts<>, 64, $0xd1b71759)
ROW(encConsts<>, 96, $10000)
ROW(encConsts<>, 128, $0x147b147b147b147b)
ROW(encConsts<>, 160, $0x0064006400640064)
ROW(encConsts<>, 192, $0x199a199a199a199a)
ROW(encConsts<>, 224, $0x09ff09ff09ff09ff)
ROW(encConsts<>, 256, $0x3030303030303030)
ROW(encConsts<>, 288, $0x00ffffffffffffff)
ROW(encConsts<>, 320, $0x0101010101010101)
ROW(encConsts<>, 352, $0x0303030303030303)
ROW(encConsts<>, 384, $9)
ROW(encConsts<>, 416, $0x2d0000000000102c)
ROW(encConsts<>, 448, $0x0909090909090909)
DATA encConsts<>+480(SB)/8, $0x0706050403020100
DATA encConsts<>+488(SB)/8, $0x0f0e0d0c0b0a0908
DATA encConsts<>+496(SB)/8, $0x0706050403020100
DATA encConsts<>+504(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL encConsts<>(SB), RODATA|NOPTR, $512

#define encBias encConsts<>+0(SB)
#define encBound encConsts<>+32(SB)
#define encDiv1e4 encConsts<>+64(SB)
#define encTenK encConsts<>+96(SB)
#define encDiv100 encConsts<>+128(SB)
#define encHundred encConsts<>+160(SB)
#define encDiv10 encConsts<>+192(SB)
#define encJoin encConsts<>+224(SB)
#define encZeros encConsts<>+256(SB)
#define encNotLast encConsts<>+288(SB)
#define encOnes encConsts<>+320(SB)
#define encThrees encConsts<>+352(SB)
#define encNineQ encConsts<>+384(SB)
#define encTail encConsts<>+416(SB)
#define encNine encConsts<>+448(SB)
#define encIota encConsts<>+480(SB)

// func formatShort(b []byte, n int, v []int64) (nn, i int)
//
// The kernel formats four integers per vector step while they are below
// 10^8 in magnitude and b has room for them, two steps per iteration:
// A, integers i to i+3 in Y0 to Y4 and Y10, and B, i+4 to i+7 in Y5 to
// Y8, Y11 and Y12, their instructions interleaved so that one step's
// chain of multiplies overlaps the other's. In each step every
// integer's eight digits are a word of bytes, the leading zeros written
// as '-'; with its tail word (',', its text's offset, '-') it fills a
// 16-byte lane, from which one VPSHUFB takes its text: a '-' when
// negative, the digits from the first significant one, and the comma.
// Each text is then one 16-byte store and one add of its length. Other
// integers, and the last seven, go through the one-element path, which
// stops at 10^8 or more.
//
// Registers: SI b, DX n, R8 len(b)-10, DI v, BX i, R9 len(v); in the
// one-element path R10 digitWords, R11 '0' in every lane, R12 the
// divisor's multiplier. Y9 zero, Y14 all ones, Y13 9 in each word.
// Locals: len(b)-86, the most n from which eight texts fit; len(v)-8,
// the most i from which eight integers are left; and the eight texts'
// lengths. Writes: a text's 16 bytes only while they end inside b; in
// the one-element path at most the ten bytes b[n:n+10] per integer,
// only while n ≤ len(b)-10.
TEXT ·formatShort(SB), NOSPLIT, $80-72
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), R8
	MOVQ n+24(FP), DX
	MOVQ v_base+32(FP), DI
	MOVQ v_len+40(FP), R9
	XORL BX, BX
	LEAQ -86(R8), AX
	MOVQ AX, 0(SP)
	LEAQ -8(R9), AX
	MOVQ AX, 8(SP)
	SUBQ $10, R8
	JLT fdone
	LEAQ ·digitWords(SB), R10
	MOVQ $const_swarZeros, R11
	MOVQ $0xd1b71759, R12 // ⌈2^45 / 10^4⌉: u*R12>>45 is u/10^4 for u < 10^8
	VPXOR Y9, Y9, Y9
	VPCMPEQB Y14, Y14, Y14
	VMOVDQU encNineQ, Y13

fgroup:
	CMPQ BX, 8(SP)
	JGT fone             // fewer than eight left
	CMPQ DX, 0(SP)
	JGT fone             // no room for eight texts
	VMOVDQU (DI)(BX*8), Y0
	VMOVDQU 32(DI)(BX*8), Y5
	VPADDQ encBias, Y0, Y1
	VPADDQ encBias, Y5, Y6
	VPCMPGTQ encBound, Y1, Y1
	VPCMPGTQ encBound, Y6, Y6
	VPOR Y6, Y1, Y1
	VMOVMSKPD Y1, CX
	TESTL CX, CX
	JNE fone             // one is 10^8 or more in magnitude
	VPCMPGTQ Y0, Y9, Y10 // the negative lanes
	VPCMPGTQ Y5, Y9, Y12
	VPABSD Y0, Y0        // u = |x| in each low dword
	VPABSD Y5, Y5

	// The digits: u = hi·10^4 + lo, each 4-digit half = q·100 + r, each
	// 2-digit word = a·10 + b, one byte per digit, the first lowest.
	VPMULUDQ encDiv1e4, Y0, Y1
	VPMULUDQ encDiv1e4, Y5, Y6
	VPSRLQ $45, Y1, Y1
	VPSRLQ $45, Y6, Y6
	VPMULUDQ encTenK, Y1, Y2
	VPMULUDQ encTenK, Y6, Y7
	VPSUBQ Y2, Y0, Y0
	VPSUBQ Y7, Y5, Y5
	VPSLLQ $32, Y0, Y0
	VPSLLQ $32, Y5, Y5
	VPOR Y1, Y0, Y0
	VPOR Y6, Y5, Y5
	VPMULHUW encDiv100, Y0, Y1
	VPMULHUW encDiv100, Y5, Y6
	VPSRLW $3, Y1, Y1
	VPSRLW $3, Y6, Y6
	VPMULLW encHundred, Y1, Y2
	VPMULLW encHundred, Y6, Y7
	VPSUBW Y2, Y0, Y0
	VPSUBW Y7, Y5, Y5
	VPSLLD $16, Y0, Y0
	VPSLLD $16, Y5, Y5
	VPOR Y1, Y0, Y0
	VPOR Y6, Y5, Y5
	VPMULHUW encDiv10, Y0, Y1
	VPMULHUW encDiv10, Y5, Y6
	VPSLLW $8, Y0, Y0
	VPSLLW $8, Y5, Y5
	VPMULLW encJoin, Y1, Y1
	VPMULLW encJoin, Y6, Y6
	VPSUBW Y1, Y0, Y0
	VPSUBW Y6, Y5, Y5

	// The leading zeros: the run of zero bytes from the first, short of
	// the last, as a byte mask and as a count lz.
	VPCMPEQB Y9, Y0, Y1
	VPCMPEQB Y9, Y5, Y6
	VPAND encNotLast, Y1, Y1
	VPAND encNotLast, Y6, Y6
	VPSUBQ Y14, Y1, Y2
	VPSUBQ Y14, Y6, Y7
	VPANDN Y1, Y2, Y2
	VPANDN Y6, Y7, Y7
	VPAND encOnes, Y2, Y3
	VPAND encOnes, Y7, Y8
	VPSADBW Y9, Y3, Y3
	VPSADBW Y9, Y8, Y8
	VPAND encThrees, Y2, Y2
	VPAND encThrees, Y7, Y7
	VPOR encZeros, Y0, Y0
	VPOR encZeros, Y5, Y5
	VPSUBB Y2, Y0, Y0 // the digits in ASCII, '-' over the leading zeros
	VPSUBB Y7, Y5, Y5

	// Each text starts at byte k = lz-1 of its lane when negative, lz
	// otherwise, modulo 16, where byte 15 is '-', and takes 9-k bytes;
	// the tail word holds k+16.
	VPADDQ Y10, Y3, Y3
	VPADDQ Y12, Y8, Y8
	VPSUBQ Y3, Y13, Y4
	VPSUBQ Y8, Y13, Y11
	VMOVDQU Y4, 16(SP)
	VMOVDQU Y11, 48(SP)
	VPSLLQ $8, Y3, Y3
	VPSLLQ $8, Y8, Y8
	VPADDQ encTail, Y3, Y3
	VPADDQ encTail, Y8, Y8
	VPUNPCKLQDQ Y3, Y0, Y1 // the lanes of integers 0 and 2 of the step
	VPUNPCKLQDQ Y8, Y5, Y6
	VPUNPCKHQDQ Y3, Y0, Y2 // the lanes of integers 1 and 3
	VPUNPCKHQDQ Y8, Y5, Y7
	VPSHUFB encNine, Y1, Y3
	VPSHUFB encNine, Y6, Y8
	VPADDB encIota, Y3, Y3
	VPADDB encIota, Y8, Y8
	VPSHUFB Y3, Y1, Y1
	VPSHUFB Y8, Y6, Y6
	VPSHUFB encNine, Y2, Y3
	VPSHUFB encNine, Y7, Y8
	VPADDB encIota, Y3, Y3
	VPADDB encIota, Y8, Y8
	VPSHUFB Y3, Y2, Y2
	VPSHUFB Y8, Y7, Y7
	VMOVDQU X1, (SI)(DX*1)
	ADDQ 16(SP), DX
	VMOVDQU X2, (SI)(DX*1)
	ADDQ 24(SP), DX
	VEXTRACTI128 $1, Y1, (SI)(DX*1)
	ADDQ 32(SP), DX
	VEXTRACTI128 $1, Y2, (SI)(DX*1)
	ADDQ 40(SP), DX
	VMOVDQU X6, (SI)(DX*1)
	ADDQ 48(SP), DX
	VMOVDQU X7, (SI)(DX*1)
	ADDQ 56(SP), DX
	VEXTRACTI128 $1, Y6, (SI)(DX*1)
	ADDQ 64(SP), DX
	VEXTRACTI128 $1, Y7, (SI)(DX*1)
	ADDQ 72(SP), DX
	ADDQ $8, BX
	JMP fgroup

fone:
	CMPQ BX, R9
	JGE fdone
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
	JMP fgroup

fdone:
	VZEROUPPER
	MOVQ DX, nn+56(FP)
	MOVQ BX, i+64(FP)
	RET

// func cpuFeatures() (ecx1, ebx7, xcr0 uint32)
//
// CPUID leaf 1's ECX, leaf 7's EBX (0 when the CPU has no leaf 7), and
// XCR0's low word, read by XGETBV only when leaf 1 reports OSXSAVE (0
// otherwise). It touches no vector register.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-12
	XORL AX, AX
	XORL CX, CX
	CPUID
	MOVL AX, R8 // the highest leaf
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R9
	XORL R10, R10
	CMPL R8, $7
	JLT xcr0
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, R10

xcr0:
	XORL R11, R11
	BTL $27, R9
	JCC cpudone
	XORL CX, CX
	XGETBV
	MOVL AX, R11

cpudone:
	MOVL R9, ecx1+0(FP)
	MOVL R10, ebx7+4(FP)
	MOVL R11, xcr0+8(FP)
	RET
