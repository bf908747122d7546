// Assembly and traces: write a kernel directly in the evaluation ISA's
// assembly, record its branch trace to a file, and replay the trace through
// differently sized BTBs — trace-driven simulation, exactly how branch
// studies of the paper's era were run (no re-execution per configuration).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"branchcost/internal/asm"
	"branchcost/internal/btb"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
)

// A branchy kernel: histogram input bytes into 16 buckets with a
// conditional cascade, then emit the bucket counts. The cascade's branches
// have data-dependent bias — good BTB discrimination material.
const kernel = `
; byte histogram with a comparison cascade
.words 64

func main
L0:
	in    r4
	slti  r5, r4, 0
	bne   r5, r0, L20       ; EOF
	andi  r4, r4, 15        ; bucket = byte & 15
	ldi   r6, 8
	blt   r4, r6, L10       ; low half?
	addi  r4, r4, 16        ; high buckets live at 16..23... keep both
L10:
	ldi   r7, 32            ; bucket array base
	add   r7, r7, r4
	ld    r8, 0(r7)
	addi  r8, r8, 1
	st    0(r7), r8
	jmp   L0
L20:
	ldi   r9, 0             ; emit 24 counters' low bytes
L21:
	ldi   r6, 24
	bge   r9, r6, L30
	ldi   r7, 32
	add   r7, r7, r9
	ld    r8, 0(r7)
	out   r8
	addi  r9, r9, 1
	jmp   L21
L30:
	halt
end
`

func main() {
	prog, err := asm.Parse(kernel)
	if err != nil {
		log.Fatal(err)
	}

	// An input with skewed byte distribution (biased branches).
	input := make([]byte, 20000)
	for i := range input {
		switch {
		case i%7 == 0:
			input[i] = byte(i % 23)
		default:
			input[i] = byte(i % 4) // mostly low buckets
		}
	}

	// Record the trace once and write it to a BCT2 file.
	tr, err := tracefile.Record(prog, [][]byte{input})
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "asm_kernel.bt")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	_, err = tr.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel: %d instructions executed, %d branches -> %s\n",
		tr.Steps, tr.Len(), path)

	// Read the file back and replay it through a BTB size sweep — no
	// re-execution.
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := tracefile.ReadTrace(g)
	g.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%8s %10s %10s\n", "entries", "A_SBTB", "A_CBTB")
	for _, entries := range []int{2, 4, 8, 16, 64} {
		sbtb := &predict.Evaluator{P: btb.NewSBTB(entries, entries)}
		cbtb := &predict.Evaluator{P: btb.NewCBTB(entries, entries, 2, 2)}
		if err := tracefile.Score(context.Background(), loaded, []*predict.Evaluator{sbtb, cbtb}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %9.2f%% %9.2f%%\n", entries,
			100*sbtb.S.Accuracy(), 100*cbtb.S.Accuracy())
	}
	fmt.Println("\n(One execution, many configurations: the trace-driven method of 1989.)")
	os.Remove(path)
}
