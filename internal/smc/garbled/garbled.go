// Package garbled implements Yao's garbled-circuit two-party
// computation with point-and-permute and free-XOR — the classical
// zero-disclosure secure computation (paper references [9]-[18]) that
// serves as the measured baseline for the paper's claim that such
// protocols carry "excessive computing and communication overheads"
// compared with the relaxed primitives of §3. Free-XOR makes the
// baseline as fast as the standard optimizations allow, so the measured
// gap is conservative.
//
// Roles: the garbler holds input x, garbles the circuit, and transfers
// the evaluator's input labels via oblivious transfer; the evaluator
// holds input y, evaluates the garbled gates, decodes the outputs, and
// (by protocol) shares the plaintext result with the garbler. Neither
// party learns the other's input bits.
package garbled

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"confaudit/internal/mathx"
	"confaudit/internal/smc"
	"confaudit/internal/smc/circuit"
	"confaudit/internal/smc/ot"
	"confaudit/internal/transport"
)

// labelSize is the wire-label width in bytes (128-bit security labels).
const labelSize = 16

// Message types on the wire.
const (
	msgTables = "gc.tables"
	msgResult = "gc.result"
)

// Config describes one garbled-circuit run.
type Config struct {
	// Group is the DH group used by the embedded oblivious transfer.
	Group *mathx.Group
	// Garbler and Evaluator are the two node IDs.
	Garbler   string
	Evaluator string
	// Session disambiguates concurrent runs.
	Session string
}

func (c *Config) validate() error {
	if c.Group == nil {
		return fmt.Errorf("%w: nil group", smc.ErrProtocol)
	}
	if c.Garbler == "" || c.Evaluator == "" || c.Garbler == c.Evaluator {
		return fmt.Errorf("%w: need distinct garbler and evaluator", smc.ErrProtocol)
	}
	if c.Session == "" {
		return fmt.Errorf("%w: empty session", smc.ErrProtocol)
	}
	return nil
}

type label [labelSize]byte

// color returns the point-and-permute bit of a label.
func (l label) color() byte { return l[labelSize-1] & 1 }

// gateTable is the (up to) 4-row encrypted truth table of one gate,
// indexed by input colors as row = 2*colorA + colorB. NOT gates have no
// table (label swap is free).
type gateTable [][]byte

type tablesBody struct {
	// Tables holds one gateTable per gate (empty for NOT gates).
	Tables []gateTable `json:"tables"`
	// GarblerLabels are the active labels of the garbler's input wires.
	GarblerLabels [][]byte `json:"garbler_labels"`
	// OutputColors maps, per output wire, the color of the label that
	// decodes to bit 1. (Equivalently colors[i] is the color of "true".)
	OutputColors []byte `json:"output_colors"`
}

type resultBody struct {
	Bits []bool `json:"bits"`
}

// encGate encrypts an output label under two input labels.
func encGate(gateIdx int, row byte, la, lb, out label) []byte {
	pad := gatePad(gateIdx, row, la, lb)
	e := make([]byte, labelSize)
	for i := range e {
		e[i] = out[i] ^ pad[i]
	}
	return e
}

func decGate(gateIdx int, row byte, la, lb label, e []byte) (label, error) {
	var out label
	if len(e) != labelSize {
		return out, fmt.Errorf("%w: ciphertext of %d bytes", smc.ErrProtocol, len(e))
	}
	pad := gatePad(gateIdx, row, la, lb)
	for i := range out {
		out[i] = e[i] ^ pad[i]
	}
	return out, nil
}

func gatePad(gateIdx int, row byte, la, lb label) label {
	h := sha256.New()
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(gateIdx))
	hdr[4] = row
	h.Write(hdr[:])
	h.Write(la[:])
	h.Write(lb[:])
	var pad label
	copy(pad[:], h.Sum(nil))
	return pad
}

// xorLabels returns a ⊕ b.
func xorLabels(a, b label) label {
	var out label
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// garble assigns wire labels and builds encrypted gate tables, using the
// free-XOR technique: a global secret offset R (with color bit 1) links
// every wire's labels as l1 = l0 ⊕ R, so XOR gates need no table — the
// evaluator just XORs the active labels. Only AND gates pay for
// encrypted rows, which is the standard cost model for garbled circuits.
func garble(c *circuit.Circuit) (labels [][2]label, tables []gateTable, err error) {
	labels = make([][2]label, c.NWires)
	// Global offset with color bit 1, so the two labels of every wire
	// carry distinct point-and-permute colors.
	var offset label
	if _, err := io.ReadFull(rand.Reader, offset[:]); err != nil {
		return nil, nil, fmt.Errorf("garbled: sampling offset: %w", err)
	}
	offset[labelSize-1] |= 1
	freshPair := func() ([2]label, error) {
		var pair [2]label
		if _, err := io.ReadFull(rand.Reader, pair[0][:]); err != nil {
			return pair, fmt.Errorf("garbled: sampling label: %w", err)
		}
		pair[1] = xorLabels(pair[0], offset)
		return pair, nil
	}
	for w := 0; w < c.NIn1+c.NIn2; w++ {
		if labels[w], err = freshPair(); err != nil {
			return nil, nil, err
		}
	}
	tables = make([]gateTable, len(c.Gates))
	for gi, g := range c.Gates {
		switch g.Kind {
		case circuit.GateNOT:
			// Free NOT: output labels are the swapped input labels.
			labels[g.Out] = [2]label{labels[g.A][1], labels[g.A][0]}
		case circuit.GateXOR:
			// Free XOR: out0 = a0 ⊕ b0, out1 = out0 ⊕ R.
			out0 := xorLabels(labels[g.A][0], labels[g.B][0])
			labels[g.Out] = [2]label{out0, xorLabels(out0, offset)}
		case circuit.GateAND:
			pair, err := freshPair()
			if err != nil {
				return nil, nil, err
			}
			labels[g.Out] = pair
			tbl := make(gateTable, 4)
			for va := 0; va < 2; va++ {
				for vb := 0; vb < 2; vb++ {
					la := labels[g.A][va]
					lb := labels[g.B][vb]
					row := 2*la.color() + lb.color()
					tbl[row] = encGate(gi, row, la, lb, labels[g.Out][va&vb])
				}
			}
			tables[gi] = tbl
		default:
			return nil, nil, fmt.Errorf("%w: unknown gate kind %d", smc.ErrProtocol, g.Kind)
		}
	}
	return labels, tables, nil
}

// Garble runs the garbler role: garble the circuit, OT-transfer the
// evaluator's input labels, send tables and own input labels, and
// receive the plaintext result the evaluator decodes.
func Garble(ctx context.Context, mb *transport.Mailbox, cfg Config, c *circuit.Circuit, input []bool) ([]bool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(input) != c.NIn1 {
		return nil, fmt.Errorf("%w: got %d bits, circuit wants %d", circuit.ErrBadInput, len(input), c.NIn1)
	}
	labels, tables, err := garble(c)
	if err != nil {
		return nil, err
	}

	// OT: evaluator obtains its input-wire labels without revealing y.
	pairs := make([][2][]byte, c.NIn2)
	for i := 0; i < c.NIn2; i++ {
		w := c.NIn1 + i
		pairs[i] = [2][]byte{labels[w][0][:], labels[w][1][:]}
	}
	otCfg := ot.Config{
		Group:    cfg.Group,
		Sender:   cfg.Garbler,
		Receiver: cfg.Evaluator,
		Session:  cfg.Session + "/in2",
	}
	if err := ot.Send(ctx, mb, otCfg, pairs); err != nil {
		return nil, fmt.Errorf("garbled: transferring evaluator labels: %w", err)
	}

	// Ship tables, the garbler's active input labels, and output decode
	// colors.
	body := tablesBody{
		Tables:        tables,
		GarblerLabels: make([][]byte, c.NIn1),
		OutputColors:  make([]byte, len(c.Outputs)),
	}
	for i, bit := range input {
		v := 0
		if bit {
			v = 1
		}
		body.GarblerLabels[i] = labels[i][v][:]
	}
	for i, o := range c.Outputs {
		body.OutputColors[i] = labels[o][1].color()
	}
	if err := mb.SendBody(ctx, cfg.Evaluator, msgTables, cfg.Session, body); err != nil {
		return nil, err
	}

	// Receive the shared plaintext result.
	msg, err := mb.ExpectFrom(ctx, cfg.Evaluator, msgResult, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("garbled: awaiting result: %w", err)
	}
	var res resultBody
	if err := transport.Unmarshal(msg.Payload, &res); err != nil {
		return nil, err
	}
	if len(res.Bits) != len(c.Outputs) {
		return nil, fmt.Errorf("%w: result of %d bits, want %d", smc.ErrProtocol, len(res.Bits), len(c.Outputs))
	}
	return res.Bits, nil
}

// Evaluate runs the evaluator role with private input y.
func Evaluate(ctx context.Context, mb *transport.Mailbox, cfg Config, c *circuit.Circuit, input []bool) ([]bool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(input) != c.NIn2 {
		return nil, fmt.Errorf("%w: got %d bits, circuit wants %d", circuit.ErrBadInput, len(input), c.NIn2)
	}
	otCfg := ot.Config{
		Group:    cfg.Group,
		Sender:   cfg.Garbler,
		Receiver: cfg.Evaluator,
		Session:  cfg.Session + "/in2",
	}
	myLabels, err := ot.Receive(ctx, mb, otCfg, input)
	if err != nil {
		return nil, fmt.Errorf("garbled: receiving input labels: %w", err)
	}

	msg, err := mb.ExpectFrom(ctx, cfg.Garbler, msgTables, cfg.Session)
	if err != nil {
		return nil, fmt.Errorf("garbled: awaiting tables: %w", err)
	}
	var body tablesBody
	if err := transport.Unmarshal(msg.Payload, &body); err != nil {
		return nil, err
	}
	if len(body.Tables) != len(c.Gates) || len(body.GarblerLabels) != c.NIn1 || len(body.OutputColors) != len(c.Outputs) {
		return nil, fmt.Errorf("%w: malformed garbled payload", smc.ErrProtocol)
	}

	active := make([]label, c.NWires)
	for i, lb := range body.GarblerLabels {
		if len(lb) != labelSize {
			return nil, fmt.Errorf("%w: garbler label %d has %d bytes", smc.ErrProtocol, i, len(lb))
		}
		copy(active[i][:], lb)
	}
	for i, lb := range myLabels {
		if len(lb) != labelSize {
			return nil, fmt.Errorf("%w: OT label %d has %d bytes", smc.ErrProtocol, i, len(lb))
		}
		copy(active[c.NIn1+i][:], lb)
	}
	for gi, g := range c.Gates {
		switch g.Kind {
		case circuit.GateNOT:
			active[g.Out] = active[g.A]
		case circuit.GateXOR:
			// Free XOR: no table, just label XOR.
			active[g.Out] = xorLabels(active[g.A], active[g.B])
		default:
			la, lb := active[g.A], active[g.B]
			row := 2*la.color() + lb.color()
			if int(row) >= len(body.Tables[gi]) || body.Tables[gi][row] == nil {
				return nil, fmt.Errorf("%w: gate %d missing row %d", smc.ErrProtocol, gi, row)
			}
			out, err := decGate(gi, row, la, lb, body.Tables[gi][row])
			if err != nil {
				return nil, err
			}
			active[g.Out] = out
		}
	}
	// NOT gates copy the input label, so a "true" output through a NOT
	// chain decodes via the garbler-provided color of the 1-label.
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = active[o].color() == body.OutputColors[i]
	}
	// Share the plaintext with the garbler, per protocol.
	if err := mb.SendBody(ctx, cfg.Garbler, msgResult, cfg.Session, resultBody{Bits: out}); err != nil {
		return nil, err
	}
	return out, nil
}
