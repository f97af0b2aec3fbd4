package session

// replicate.go is the session manager's replication surface. A primary
// exposes its journal suffix as chain-verified ship batches (ReadShip);
// a follower manager applies received records verbatim with
// ApplyReplicated — the exact bytes the primary journaled, appended at
// the exact sequence numbers, driven through the same replayCommand path
// recovery uses. Chain hashes therefore match the primary's by
// construction, and so does the rebuilt session state: replay is the
// deterministic state machine crash recovery already proved.

import (
	"encoding/json"
	"errors"
	"fmt"

	"qoschain/internal/journal"
	"qoschain/internal/metrics"
)

// ErrNotPersistent is returned for replication operations on an
// in-memory manager: with no journal there is nothing to ship or apply.
var ErrNotPersistent = errors.New("session: replication requires a state directory")

// LastChain returns the journal chain position (zero for an in-memory
// manager). Together with LastSeq it names the manager's applied offset
// in the shipping protocol.
func (m *Manager) LastChain() journal.Chain {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return journal.Chain{}
	}
	return m.log.LastChain()
}

// ReadShip assembles the journal suffix after offset `since` for
// shipping to a follower — at most max records (0 for the journal's
// default). When compaction has dropped that suffix, the batch instead
// carries the newest snapshot plus the records after it; the follower
// bootstraps from the snapshot and resumes incremental catch-up.
func (m *Manager) ReadShip(since uint64, max int) (*journal.ShipBatch, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil, ErrNotPersistent
	}
	b, err := m.log.ReadSince(since, max)
	if err == nil {
		return b, nil
	}
	if !errors.Is(err, journal.ErrCompacted) {
		return nil, err
	}
	snap, _, serr := journal.LatestSnapshot(m.log.Dir())
	if serr != nil {
		return nil, serr
	}
	if snap == nil {
		return nil, err
	}
	b, err = m.log.ReadSince(snap.Seq, max)
	if err != nil {
		return nil, err
	}
	b.Snapshot = snap
	return b, nil
}

// ApplyReplicated appends verified shipped records verbatim and applies
// each through the recovery replay path. The records must continue the
// manager's journal exactly (the caller has already matched offsets and
// verified the chain — see journal.VerifyShip); any discontinuity is
// rejected before a single byte is appended. The whole batch commits
// under one group fsync. It returns the applied offset after the batch.
func (m *Manager) ApplyReplicated(recs []journal.Record) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return 0, ErrNotPersistent
	}
	cur := m.log.LastSeq()
	datas := make([][]byte, len(recs))
	for i, r := range recs {
		if r.Seq != cur+uint64(i)+1 {
			return cur, fmt.Errorf("session: replicated record seq %d does not continue applied offset %d", r.Seq, cur)
		}
		datas[i] = r.Data
	}
	if len(datas) == 0 {
		return cur, nil
	}
	if _, err := m.log.Append(datas...); err != nil {
		return cur, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	for _, r := range recs {
		var ev walEvent
		if err := json.Unmarshal(r.Data, &ev); err != nil {
			m.replayError(fmt.Sprintf("replicated seq %d: %v", r.Seq, err))
			continue
		}
		m.replayCommand(ev, r.Data, r.Seq)
		m.cfg.Counters.Inc(metrics.CounterReplicationApplied)
	}
	return m.log.LastSeq(), nil
}
