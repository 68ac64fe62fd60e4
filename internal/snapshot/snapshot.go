// Package snapshot implements the Chandy–Lamport distributed snapshot
// algorithm as a transparent wrapper around any dsim.Machine.
//
// The paper's Time Machine needs globally consistent snapshots and notes
// that "there do exist various techniques for doing this" (§3.2) before
// settling on communication-induced checkpointing via speculations. This
// package provides the canonical *coordinated* alternative: an initiator
// checkpoints and floods marker messages; every process checkpoints on its
// first marker and records each inbound channel until that channel's
// marker arrives. The resulting cut — one checkpoint per process plus the
// recorded channel contents — is consistent by construction, which
// experiment E6 verifies against the vector-clock consistency test and
// contrasts with CIC and uncoordinated checkpointing.
//
// The wrapper multiplexes protocol messages ("cl|..." frames) and
// application traffic over the same channels, and combines its own
// serializable state with the wrapped machine's so checkpoints and
// rollbacks keep working through it.
package snapshot

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/dsim"
)

// markerPrefix tags protocol frames on the wire.
const markerPrefix = "cl|marker|"

// IsMarker reports whether a payload is Chandy-Lamport protocol traffic.
// Recovery-line analyses exclude markers: they cross the cut by design
// (sent after the sender's checkpoint, received before the receiver's)
// and carry no application state.
func IsMarker(payload []byte) bool {
	return strings.HasPrefix(string(payload), markerPrefix)
}

// wrapperState is the snapshot bookkeeping, serializable alongside the
// inner machine's state.
type wrapperState struct {
	SnapID    string              // active snapshot, "" if none
	CkptID    string              // local checkpoint taken for it
	Recording map[string]bool     // inbound channel -> still recording
	Chans     map[string][]string // channel -> recorded messages (base64)
	Done      bool                // this process completed its part
	Snapshots int                 // completed snapshots
}

// comboState marshals the wrapper and inner states as one JSON object, so
// dsim checkpoints capture both.
type comboState struct {
	wrap  *wrapperState
	inner any
}

// MarshalJSON implements json.Marshaler.
func (c *comboState) MarshalJSON() ([]byte, error) {
	innerRaw, err := json.Marshal(c.inner)
	if err != nil {
		return nil, err
	}
	wrapRaw, err := json.Marshal(c.wrap)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]json.RawMessage{"wrap": wrapRaw, "inner": innerRaw})
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *comboState) UnmarshalJSON(b []byte) error {
	var parts map[string]json.RawMessage
	if err := json.Unmarshal(b, &parts); err != nil {
		return err
	}
	if raw, ok := parts["wrap"]; ok {
		if err := json.Unmarshal(raw, c.wrap); err != nil {
			return err
		}
	}
	if raw, ok := parts["inner"]; ok {
		if err := json.Unmarshal(raw, c.inner); err != nil {
			return err
		}
	}
	return nil
}

// Wrapper runs the Chandy–Lamport protocol around an inner machine.
type Wrapper struct {
	inner dsim.Machine
	st    wrapperState
	combo *comboState
	// lastSnapID suppresses duplicate markers for an already-completed
	// snapshot. It is deliberately not serialized: a rolled-back process
	// simply re-participates, which is safe (it re-checkpoints).
	lastSnapID string

	// Peers are all other processes (the inbound channel set).
	Peers []string
	// InitiateAt, when non-zero, starts a snapshot at that virtual time
	// (this wrapper becomes the initiator).
	InitiateAt uint64
}

// Wrap builds a snapshot wrapper around inner. peers must list every other
// process in the system.
func Wrap(inner dsim.Machine, peers []string) *Wrapper {
	w := &Wrapper{inner: inner, Peers: peers}
	w.combo = &comboState{wrap: &w.st, inner: inner.State()}
	return w
}

// Inner returns the wrapped machine.
func (w *Wrapper) Inner() dsim.Machine { return w.inner }

// Snapshots returns how many snapshots this process has completed.
func (w *Wrapper) Snapshots() int { return w.st.Snapshots }

// ChannelLog returns the messages recorded on the channel from peer
// during the last completed snapshot.
func (w *Wrapper) ChannelLog(peer string) [][]byte {
	var out [][]byte
	for _, enc := range w.st.Chans[peer] {
		b, err := base64.StdEncoding.DecodeString(enc)
		if err == nil {
			out = append(out, b)
		}
	}
	return out
}

// CheckpointID returns the checkpoint taken for the last snapshot.
func (w *Wrapper) CheckpointID() string { return w.st.CkptID }

// State implements dsim.Machine: the combined wrapper+inner state.
func (w *Wrapper) State() any { return w.combo }

// Init arms the initiation timer and delegates.
func (w *Wrapper) Init(ctx dsim.Context) {
	if w.InitiateAt > 0 {
		ctx.SetTimer("cl-initiate", w.InitiateAt)
	}
	w.inner.Init(ctx)
}

// begin takes the local checkpoint and starts recording all channels.
func (w *Wrapper) begin(ctx dsim.Context, snapID string) {
	w.st.SnapID = snapID
	w.lastSnapID = snapID
	w.st.Done = false
	w.st.CkptID = ctx.Checkpoint("chandy-lamport " + snapID)
	w.st.Recording = map[string]bool{}
	w.st.Chans = map[string][]string{}
	for _, p := range w.Peers {
		w.st.Recording[p] = true
	}
	for _, p := range w.Peers {
		ctx.Send(p, []byte(markerPrefix+snapID))
	}
	w.maybeFinish()
}

// maybeFinish completes the snapshot when no channel is still recording.
func (w *Wrapper) maybeFinish() {
	for _, rec := range w.st.Recording {
		if rec {
			return
		}
	}
	if w.st.SnapID != "" && !w.st.Done {
		w.st.Done = true
		w.st.Snapshots++
		w.st.SnapID = ""
	}
}

// OnMessage handles markers and records in-transit application traffic.
func (w *Wrapper) OnMessage(ctx dsim.Context, from string, payload []byte) {
	if msg := string(payload); strings.HasPrefix(msg, markerPrefix) {
		snapID := strings.TrimPrefix(msg, markerPrefix)
		if w.st.SnapID == "" && !w.partOf(snapID) {
			// First marker: checkpoint; the channel it arrived on is empty.
			w.begin(ctx, snapID)
		}
		if w.st.Recording != nil {
			w.st.Recording[from] = false
		}
		w.maybeFinish()
		return
	}
	if w.st.SnapID != "" && w.st.Recording[from] {
		w.st.Chans[from] = append(w.st.Chans[from], base64.StdEncoding.EncodeToString(payload))
	}
	w.inner.OnMessage(ctx, from, payload)
}

// partOf reports whether this process already participated in snapID.
// Completing a snapshot resets SnapID to "", so late duplicate markers for
// the same snapshot must not re-trigger a checkpoint.
func (w *Wrapper) partOf(snapID string) bool {
	return snapID == w.lastSnapID
}

// OnTimer initiates a snapshot or delegates.
func (w *Wrapper) OnTimer(ctx dsim.Context, name string) {
	if name == "cl-initiate" {
		if w.st.SnapID == "" {
			w.begin(ctx, fmt.Sprintf("snap-%s-%d", ctx.Self(), ctx.Now()))
		}
		return
	}
	w.inner.OnTimer(ctx, name)
}

// OnRollback clears in-progress snapshot state and delegates.
func (w *Wrapper) OnRollback(ctx dsim.Context, info dsim.RollbackInfo) {
	w.st.SnapID = ""
	w.st.Recording = nil
	w.inner.OnRollback(ctx, info)
}

// AppConsistent verifies the Chandy-Lamport safety property directly from
// the scrolls: every *application* message received before a member's
// checkpoint was also sent before its sender's checkpoint — no orphans.
// Protocol markers are excluded: they are the mechanism, not application
// state, and are consumed by the wrapper rather than restored on rollback.
// line maps each process to its snapshot checkpoint ID.
func AppConsistent(s *dsim.Sim, line map[string]string) (bool, error) {
	lineSeq := make(map[string]uint64, len(line))
	for id, ckID := range line {
		ck := s.Store().Get(ckID)
		if ck == nil {
			return false, fmt.Errorf("snapshot: unknown checkpoint %q for %s", ckID, id)
		}
		lineSeq[id] = ck.ScrollSeq
	}
	sends := map[string]bool{}
	for id, limit := range lineSeq {
		for r := range s.Scroll(id).All() {
			if r.Seq >= limit {
				break
			}
			if r.Kind.String() == "send" {
				sends[r.MsgID] = true
			}
		}
	}
	for id, limit := range lineSeq {
		for r := range s.Scroll(id).All() {
			if r.Seq >= limit {
				break
			}
			if r.Kind.String() != "recv" {
				continue
			}
			if strings.HasPrefix(string(r.Payload), markerPrefix) {
				continue
			}
			if _, member := lineSeq[r.Peer]; member && !sends[r.MsgID] {
				return false, nil // orphan application message
			}
		}
	}
	return true, nil
}
