// Package coherence implements the directory-based MESI protocol the HTM
// piggybacks on: the coherence message vocabulary (including the PUNO
// extensions: U-bit, notification field, MP-bit and MP-node), and the
// blocking home-directory controller in the style of the SGI Origin / GEMS
// MESI_CMP protocol the paper uses. The requester-side (L1) half of the
// protocol lives in internal/machine, where it is entangled with the core
// and HTM state; the directory here is fully testable in isolation against
// a mock environment.
package coherence

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"

	"repro/internal/htm"
)

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol messages. Requests flow L1->directory, forwards
// directory->sharer/owner, responses sharer/owner/directory->requester, and
// UNBLOCK requester->directory.
const (
	MsgGETS     MsgType = iota // request shared access
	MsgGETX                    // request exclusive access
	MsgFwdGETS                 // forwarded read request to the owner
	MsgFwdGETX                 // forwarded write request / invalidation to sharers or owner
	MsgData                    // data response (directory L2 or cache-to-cache)
	MsgAckCount                // directory tells requester how many sharer responses to expect (no data)
	MsgAck                     // sharer invalidation/downgrade acknowledgement
	MsgNack                    // conflict rejection from a transactional sharer/owner
	MsgNackBusy                // directory busy with another request to this line
	MsgUnblock                 // requester concludes a directory-serialized request
	MsgWBData                  // owner writes data back to the directory during a downgrade
	MsgPUTX                    // victim writeback request of a Modified line
	MsgWBAck                   // directory accepted the writeback
	MsgWBStale                 // writeback raced with a forward; owner must satisfy the forward
	MsgWakeup                  // PUNO-Push extension: a nacker finished; the waiter should retry now
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	names := [...]string{
		"GETS", "GETX", "FwdGETS", "FwdGETX", "Data", "AckCount", "Ack",
		"Nack", "NackBusy", "Unblock", "WBData", "PUTX", "WBAck", "WBStale",
		"Wakeup",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Msg is one coherence message. Fields beyond Type/Line/Src/Dst are used by
// subsets of the message types; see the field comments.
//
// The layout is part of the hot path: every message is zeroed and filled in
// place in a pooled slot, so the word-sized fields come first, then LID with
// Type and the flag bytes packed into two words, and the 64-byte Data last —
// 168 bytes (TestMsgSize) where declaration-by-topic order cost 208.
type Msg struct {
	Line mem.Line
	Src  int // sending node
	Dst  int // receiving node

	// Requester identity, threaded through forwards so sharers respond
	// directly to the requester (3-hop protocol).
	Requester int
	ReqID     uint64 // requester's per-request generation tag, echoed in responses

	Prio     htm.Priority // requester transaction priority (timestamp)
	MPNode   int          // UNBLOCK: the mispredicted node whose P-Buffer entry is stale
	TEst     sim.Time     // NACK: nacker's estimated remaining cycles (0 = no notification)
	AvgTxLen sim.Time     // requests: requester's average transaction length (directory timeout hint)

	// Directory -> requester bookkeeping.
	AckCount int // number of sharer responses the requester must collect

	// UNBLOCK payload (with Success below). AbortedSharers tells the
	// directory how many sharers aborted for this service (it only observes
	// responses indirectly), so the predictor can estimate how much false
	// aborting its multicasts cause.
	AbortedSharers int

	// LID is Line's interned dense ID (0 when the sender did not know it —
	// the directory interns on arrival). Carrying it on every message lets
	// the receiving controller index its dense tables without hashing.
	LID  mem.LineID
	Type MsgType

	// Transactional metadata carried on requests and forwards.
	IsTx     bool
	IsWrite  bool // the forwarded request is a write (GETX)
	NeedData bool // GETX from Invalid: requester has no copy

	// PUNO protocol extensions (Fig. 7 of the paper), with MPNode and TEst.
	UBit  bool // forward was unicast by the predictive directory
	MPBit bool // NACK/UNBLOCK: unicast destination was mispredicted

	// HasData is unread: the message type fixes the size (MsgType.Flits).
	// It stays only because the repository benchmark's kernels still set
	// it; the next change to the benchmark deletes it.
	HasData bool
	Success bool // UNBLOCK: the request completed (false: it was NACKed)

	// Responder-side annotations. Sole marks a response from the only
	// node servicing the request (the owner of a Modified line, or the
	// target of a predictive unicast): the requester completes on it
	// without waiting for a directory header. AbortedSharer marks an ACK
	// from a sharer that aborted its transaction to honour the request —
	// the requester counts these to classify false aborting (Figs. 2, 3).
	Sole          bool
	AbortedSharer bool

	// Data movement.
	Data mem.LineData
}

// ControlFlits and DataFlits size protocol messages on the network: a
// 64-byte line plus header spans five 16-byte flits; everything else fits
// in one flit (the paper notes the PUNO extensions fit existing flits).
const (
	ControlFlits = 1
	DataFlits    = 5
)

// Flits returns the network size of a message of type t: the three types
// that carry a line (Data, WBData, PUTX) span DataFlits, every other type
// one flit.
func (t MsgType) Flits() int {
	switch t {
	case MsgData, MsgWBData, MsgPUTX:
		return DataFlits
	}
	return ControlFlits
}

// Flits returns the network size of the message.
func (m *Msg) Flits() int { return m.Type.Flits() }

// Class returns the virtual-network class the message travels on.
func (m *Msg) Class() noc.Class {
	switch m.Type {
	case MsgGETS, MsgGETX, MsgPUTX:
		return noc.ClassRequest
	case MsgFwdGETS, MsgFwdGETX:
		return noc.ClassForward
	default:
		return noc.ClassResponse
	}
}
