package coherence

import (
	"testing"
	"unsafe"
)

// TestMsgSize pins the message layout's size: every send zeroes and fills
// one Msg, so a field added out of group (a bool between words, anything
// after Data) shows up here before it shows up as host time.
func TestMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got > 168 {
		t.Errorf("unsafe.Sizeof(Msg{}) = %d, want <= 168 (see the layout note on Msg)", got)
	}
}
