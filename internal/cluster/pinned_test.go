package cluster

import (
	"encoding/hex"
	"math/big"
	"testing"

	"confaudit/internal/logmodel"
	"confaudit/internal/smc"
)

// TestPinnedEncodings compares a store batch body, a journal "frag"
// record and a relay body with encodings written by an earlier build.
// Outbox spools and journals hold these bytes, so any change to them
// strands data written before it.
func TestPinnedEncodings(t *testing.T) {
	batch := storeBatchBody{TicketID: "T1", Items: []batchItem{
		{
			Fragment: logmodel.Fragment{GLSN: 300, Node: "P1", Values: map[logmodel.Attr]logmodel.Value{
				"id":  logmodel.String("U1"),
				"amt": logmodel.Int(-42),
			}},
			DigestExp:  new(big.Int).Lsh(big.NewInt(0x5A), 200),
			Provenance: testSig(0xAB),
		},
		{Fragment: logmodel.Fragment{GLSN: 301, Node: "P2"}, DigestExp: big.NewInt(9)},
	}}
	rec, err := entryRecord(&walEntry{Kind: "frag", Item: &batch.Items[0]})
	if err != nil {
		t.Fatal(err)
	}
	relay := smc.RelayWire{Origin: "P3", Hops: 2, Seq: 1, Total: 4, BlockLen: 3, Packed: []byte{1, 2, 3, 4, 5, 6}}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"store batch", batch.AppendBinary(nil), "0254310374ac020250310303616d7402005300026964010255310000011a5a0000000000000000000000000000000000000000000000000041abababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababab0aad020250320001010900"},
		{"journal frag", rec.Data, "da04030000000001ac020250310303616d7402005300026964010255310000011a5a0000000000000000000000000000000000000000000000000041abababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababab"},
		{"relay", relay.AppendBinary(nil), "0250330201040306010203040506"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encoding changed:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
