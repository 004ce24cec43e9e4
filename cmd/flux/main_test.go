package main

import (
	"testing"

	"fluxgo/internal/wire"
)

func TestPayloadText(t *testing.T) {
	w := wire.NewBinWriter(8)
	w.Bytes([]byte{0x01, 0xff})
	w.Uint(7)
	for _, tc := range []struct {
		payload []byte
		want    string
	}{
		{[]byte(`{"epoch":3}`), `{"epoch":3}`},
		{w.Finish(), "b30201ff07"},
		{nil, ""},
	} {
		if got := payloadText(tc.payload); got != tc.want {
			t.Errorf("payloadText(% x) = %q, want %q", tc.payload, got, tc.want)
		}
	}
}
