// Belief snapshots and the verified-certificate cache.
//
// The server's trust state — anchors, processed revocations and group
// links — lives in an immutable snapshot swapped atomically by the
// belief-mutating operations (Server.Apply and its deprecated
// Process*/Reanchor wrappers). Authorize loads the current snapshot once
// and runs lock-free against it: certificate derivations go into a
// per-request fork of the snapshot's engine, and successful
// verifications are memoized in the snapshot's certificate cache (keyed by
// certificate fingerprint). A belief mutation carries the cache into the
// next snapshot minus every entry a revocation in the new belief set
// could falsify (certCache.carry); a re-anchoring starts a fresh one, so
// nothing verified under an old key epoch survives. Each snapshot also
// carries the residual checklists compiled against its belief set
// (residual.go), so residue invalidation rides the same swap.

package authz

import (
	"fmt"
	"sync"

	"jointadmin/internal/clock"
	"jointadmin/internal/logic"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/wal"
)

// state is one immutable belief snapshot. All fields are fixed after
// publication except the cache, which only memoizes conclusions already
// derivable from the snapshot's beliefs.
type state struct {
	anchors TrustAnchors
	eng     *logic.Engine // sealed base engine; fork before deriving
	// epoch counts re-anchorings (key epochs); watermark counts belief
	// mutations within an epoch (revocations, group links). Together they
	// version the belief set.
	epoch     uint64
	watermark uint64
	cache     *certCache
	// residues are the checklists compiled against this snapshot's belief
	// set at publish time (residual.go), keyed by (object, group). They
	// are invalidated by construction: the next publish carries fresh
	// ones.
	residues map[string]*residue
}

// Snapshot is a read-only view of the server's current belief state,
// exposed for tests and the proof-trace tooling. Epoch and Watermark
// version the belief set: Epoch increments on re-anchoring (rekey),
// Watermark on every processed revocation or group link.
type Snapshot struct {
	Epoch     uint64
	Watermark uint64
	eng       *logic.Engine
}

// Beliefs returns a copy of every belief held in the snapshot.
func (sn Snapshot) Beliefs() []logic.Entry { return sn.eng.Store().All() }

// Proof returns a copy of the snapshot's base derivation log (initial
// beliefs plus revocation reasoning).
func (sn Snapshot) Proof() *logic.Proof { return sn.eng.Proof().Clone() }

// Engine returns a private fork of the snapshot's engine: callers may
// derive freely without affecting the server.
func (sn Snapshot) Engine() *logic.Engine { return sn.eng.Fork() }

// Snapshot returns the server's current immutable belief snapshot.
func (s *Server) Snapshot() Snapshot {
	st := s.state.Load()
	return Snapshot{Epoch: st.epoch, Watermark: st.watermark, eng: st.eng}
}

// cachedCert is one memoized certificate verification: the formula the
// derivation concluded, the key it was verified under (the CA's believed
// key for an identity certificate, the AA key for an attribute or
// delegation leaf), the certificate's validity interval (re-checked at
// hit time — the clock advances within a snapshot's lifetime), and, for
// identity certificates, the subject's parsed verification key.
type cachedCert struct {
	formula    logic.Formula
	signer     logic.KeyID
	validity   clock.Interval
	subjectKey sharedrsa.PublicKey
	note       string
}

// certCache memoizes successful certificate verifications by fingerprint.
// Each state owns one; a belief mutation hands the next state a filtered
// copy (carry) and a re-anchoring a fresh one.
type certCache struct {
	mu sync.RWMutex
	m  map[string]cachedCert
}

func newCertCache() *certCache {
	return &certCache{m: make(map[string]cachedCert)}
}

func (c *certCache) get(fp string) (cachedCert, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.m[fp]
	return e, ok
}

func (c *certCache) put(fp string, e cachedCert) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[fp] = e
}

func (c *certCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// carry returns the cache for the next snapshot of the same key epoch,
// whose belief store is store, and how many entries it dropped.
//
// Soundness. Within a key epoch a belief mutation only adds to the belief
// set: links, graph edges and delegations add beliefs, and revocations add
// negative ones (revoked memberships and keys). Adding a belief never
// falsifies an earlier derivation in this logic, so the only conclusions
// a new snapshot can withdraw are the ones a revocation blocks. A cached
// verification rests on two beliefs that a revocation can reach: the
// signer's key (KeyFor of the issuer, which skips revoked keys) and the
// concluded formula itself — an identity's key binding (a revoked key is
// refused by AcceptKeyCertificate) or a membership (a revoked membership
// is refused by AcceptMembershipCertificate). An entry is dropped when
// either is revoked in the new store at any time (clock.Infinity), which
// is at least as strict as the checks a cache hit re-runs at the current
// time; everything else an entry depends on — the anchors' jurisdictions
// and the certificate's signature and validity interval — is fixed for
// the epoch or re-checked on every hit. The entries kept are therefore
// exactly conclusions the full derivation would reach again against the
// new beliefs, and a key revocation effective later still denies a hit
// once it takes hold, because the hit re-checks the signer's and the
// subject's keys at the current time. Entries added to c after the copy
// are not carried; the next snapshot simply verifies those certificates
// again.
func (c *certCache) carry(store *logic.BeliefStore) (*certCache, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	next := &certCache{m: make(map[string]cachedCert, len(c.m))}
	for fp, e := range c.m {
		if !e.falsifiedBy(store) {
			next.m[fp] = e
		}
	}
	return next, len(c.m) - len(next.m)
}

// falsifiedBy reports whether a revocation in store withdraws a belief
// the cached verification rests on.
func (e cachedCert) falsifiedBy(store *logic.BeliefStore) bool {
	if store.KeyRevoked(e.signer, clock.Infinity) {
		return true
	}
	switch f := e.formula.(type) {
	case logic.KeySpeaksFor:
		return store.KeyRevoked(f.K, clock.Infinity)
	case logic.MemberOf:
		return store.Revoked(f.Who, f.G, clock.Infinity)
	}
	return false
}

// mutate runs fn against a fork of the current base engine and, on
// success, seals the fork and publishes it as the new snapshot with the
// certificate cache carried over (certCache.carry). Sealing folds the mutation's overlay into the
// immutable base layers, so Authorize's per-request forks of the new
// snapshot stay O(1). On error the fork is discarded and the published
// state is untouched. Mutators are serialized by s.mu; Authorize never
// takes it.
//
// fn may return a WAL record describing the mutation; when a journal is
// attached the record is written — and fsynced — before the snapshot is
// published, so an acknowledged mutation is always on stable storage
// (write-ahead). A journal failure aborts the mutation.
func (s *Server) mutate(fn func(cur *state, eng *logic.Engine) (*wal.Record, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	eng := cur.eng.Fork()
	rec, err := fn(cur, eng)
	if err != nil {
		return err
	}
	if rec != nil {
		if j := s.journalRef(); j != nil {
			if _, err := j.Append(*rec, true); err != nil {
				return fmt.Errorf("authz: journal mutation: %w", err)
			}
		}
	}
	eng.Seal()
	cache, dropped := cur.cache.carry(eng.Store())
	s.publish(&state{
		anchors:   cur.anchors,
		eng:       eng,
		epoch:     cur.epoch,
		watermark: cur.watermark + 1,
		cache:     cache,
		residues:  s.compileResiduals(eng),
	}, dropped)
	return nil
}

// publish swaps in the new state, accounting the certificate cache
// entries it carried and the dropped ones.
func (s *Server) publish(next *state, dropped int) {
	carried := next.cache.len()
	s.state.Store(next)
	if dropped > 0 {
		s.reg.Counter(MetricCacheInvalidated).Add(int64(dropped))
	}
	if carried > 0 {
		s.reg.Counter(MetricCacheCarried).Add(int64(carried))
	}
	s.reg.Counter(MetricSnapshotSwaps).Inc()
}

// applyReanchor replaces the server's trust anchors — the re-anchoring a
// coalition rekey (Join/Leave) requires — bumping the key epoch. The belief
// set is rebuilt from the new anchors and the certificate cache is
// discarded: nothing verified under the old epoch survives. With a
// journal attached, the new anchors are recorded (and fsynced) before
// the epoch is published; a journal failure leaves the old epoch in
// place.
func (s *Server) applyReanchor(anchors TrustAnchors) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	if j := s.journalRef(); j != nil {
		rec, err := anchorsRecord(anchors, cur.epoch+1, s.clk.Now())
		if err != nil {
			return err
		}
		if _, err := j.Append(rec, true); err != nil {
			return fmt.Errorf("authz: journal re-anchoring: %w", err)
		}
	}
	eng := freshEngine(s.name, s.clk, anchors)
	s.publish(&state{
		anchors:   anchors,
		eng:       eng,
		epoch:     cur.epoch + 1,
		watermark: 0,
		cache:     newCertCache(),
		residues:  s.compileResiduals(eng),
	}, cur.cache.len())
	return nil
}

// restoreAt installs recorded trust anchors at their recorded epoch —
// the replay counterpart of Reanchor (ReplayExact), which never
// journals: the record being replayed is already durable.
func (s *Server) restoreAt(anchors TrustAnchors, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	eng := freshEngine(s.name, s.clk, anchors)
	s.publish(&state{
		anchors:   anchors,
		eng:       eng,
		epoch:     epoch,
		watermark: 0,
		cache:     newCertCache(),
		residues:  s.compileResiduals(eng),
	}, cur.cache.len())
}
