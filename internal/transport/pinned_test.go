package transport

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"testing"
)

// TestPinnedEnvelope compares one TCP frame with the encoding written
// by an earlier build: peers on either side of a change to it could not
// talk to each other.
func TestPinnedEnvelope(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := Message{From: "P1", To: "P2", Type: "log.store_batch", Session: "s7", ReplyAddr: "127.0.0.1:7311",
		TraceSession: "q1", TraceSpan: "P1:4", Payload: append([]byte{payloadMagic, payloadVersion}, bytes.Repeat([]byte{0x5C}, 130)...)}
	if err := writeFrame(bw, &msg); err != nil {
		t.Fatal(err)
	}
	const want = "000000b8d1030250310250320f6c6f672e73746f72655f62617463680273370e3132372e302e302e313a373331310271310450313a348401b7015c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Errorf("envelope encoding changed:\n got  %s\n want %s", got, want)
	}
}
