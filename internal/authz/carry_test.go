package authz

// Differential property test for the carried certificate cache: seeded
// random histories over the Mutation sum type (the transition alphabet of
// a scenario-based state exploration), interleaved with joint, threshold,
// selective and delegated requests. After every step one request is
// decided three ways on the same snapshot — on the live server (carried
// cache, residual fast path), with residues disabled (full replay over
// the carried cache), and with an empty cache (full replay verifying
// every certificate) — and the three decisions must agree.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
)

var users = []string{"User_D1", "User_D2", "User_D3"}

// world is one server under a random history, over a private fixture:
// histories revoke certificates and CA keys, and the RA's pending list
// feeds CRLs, so nothing is shared with the other tests' fixture.
type world struct {
	f   *fixture
	srv *Server
	log *audit.Log
	reg *obs.Registry
	ctx context.Context

	// subAC is a 2-of-3 certificate for G_sub, which reaches the ACL only
	// through the G_sub ⇒ G_write link; gsubAC a 1-of-3 certificate for
	// G_gsub, which reaches it only through the G_gsub → G_read graph edge.
	subAC, gsubAC pki.Signed[pki.ThresholdAttribute]
	link          pki.Signed[pki.GroupLink]
	graph         pki.Signed[pki.GroupGraphLink]
	single        map[string]pki.Signed[pki.Attribute]
	// delegs holds every delegation leaf issued so far, applied or not.
	delegs []pki.Signed[pki.Delegation]
}

func newWorld(t *testing.T) *world {
	t.Helper()
	f, err := buildFixture()
	if err != nil {
		t.Fatal(err)
	}
	w := &world{f: f, log: audit.NewLog(), reg: obs.NewRegistry(), ctx: context.Background(),
		single: make(map[string]pki.Signed[pki.Attribute])}
	w.srv = f.newServer(w.log)
	w.srv.Instrument(w.reg)
	valid := clock.NewInterval(50, 5000)
	aa := f.est.AA
	if w.subAC, err = aa.IssueThreshold("G_sub", 2, f.subjects(), valid); err != nil {
		t.Fatal(err)
	}
	if w.gsubAC, err = aa.IssueThreshold("G_gsub", 1, f.subjects(), valid); err != nil {
		t.Fatal(err)
	}
	if w.link, err = aa.IssueGroupLink("G_sub", "G_write", valid); err != nil {
		t.Fatal(err)
	}
	if w.graph, err = aa.IssueGroupGraphLink("G_gsub", "G_read", 1, valid); err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if w.single[u], err = aa.IssueAttribute("G_read", w.bound(u), valid); err != nil {
			t.Fatal(err)
		}
	}
	// Register each CA's and the AA's own key as a revocable binding, so
	// an identity revocation can withdraw a signer's key.
	for name, ca := range f.cas {
		ca.Register(name, ca.Public())
	}
	f.cas["CA1"].Register("AA", aa.Public())
	return w
}

func (w *world) bound(u string) pki.BoundSubject {
	return pki.BoundSubject{Name: u, KeyID: w.f.users[u].KeyID()}
}

// request builds a request signed now by the given users.
func (w *world) request(t *testing.T, base AccessRequest, op acl.Permission, payload []byte, signers ...string) AccessRequest {
	t.Helper()
	req := base
	for _, u := range signers {
		req.Identities = append(req.Identities, w.f.idCerts[u])
		r, err := SignRequest(u, w.f.clk.Now(), op, "O", payload, w.f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
	}
	return req
}

// randomRequest draws one request of the seven shapes the history can
// enable or disable.
func (w *world) randomRequest(t *testing.T, rng *rand.Rand) (string, AccessRequest) {
	u := users[rng.Intn(len(users))]
	pair := rng.Perm(len(users))
	switch k := rng.Intn(7); {
	case k == 0 && len(w.delegs) > 0:
		d := w.delegs[rng.Intn(len(w.delegs))]
		return "delegated read by " + d.Cert.Subject.Name,
			w.request(t, AccessRequest{Delegated: true, Delegation: d}, acl.Read, nil, d.Cert.Subject.Name)
	case k == 1:
		return "selective read by " + u, w.request(t, AccessRequest{SingleSubject: true, Single: w.single[u]}, acl.Read, nil, u)
	case k == 2:
		return "G_read read by " + u, w.request(t, AccessRequest{Threshold: w.f.readAC}, acl.Read, nil, u)
	case k == 3:
		return "G_gsub read by " + u, w.request(t, AccessRequest{Threshold: w.gsubAC}, acl.Read, nil, u)
	case k == 4:
		return "G_sub write by " + users[pair[0]] + "," + users[pair[1]],
			w.request(t, AccessRequest{Threshold: w.subAC}, acl.Write, []byte("s"), users[pair[0]], users[pair[1]])
	case k == 5:
		return "sub-quorum G_write write by " + u, w.request(t, AccessRequest{Threshold: w.f.writeAC}, acl.Write, []byte("q"), u)
	default:
		return "G_write write by " + users[pair[0]] + "," + users[pair[1]],
			w.request(t, AccessRequest{Threshold: w.f.writeAC}, acl.Write, []byte("w"), users[pair[0]], users[pair[1]])
	}
}

// effective draws a revocation's effective time: mostly now, sometimes a
// few ticks ahead, so a key revocation takes hold between mutations,
// inside one snapshot. (Membership revocations take effect when
// processed, whatever the certificate says.)
func effective(rng *rand.Rand, now clock.Time) clock.Time {
	if rng.Intn(3) == 0 {
		return now + clock.Time(1+rng.Intn(3))
	}
	return now
}

// randomMutation draws one mutation and describes it. Revocations are
// either applied directly or left on the RA's list for the next CRL.
func (w *world) randomMutation(t *testing.T, rng *rand.Rand) (string, Mutation) {
	t.Helper()
	f, now := w.f, w.f.clk.Now()
	valid := clock.NewInterval(50, 5000)
	for {
		switch rng.Intn(12) {
		case 0:
			return "group link G_sub ⇒ G_write", GroupLink{Cert: w.link}
		case 1:
			return "graph link G_gsub → G_read", GroupGraphLink{Cert: w.graph}
		case 2, 3:
			u := users[rng.Intn(len(users))]
			delegator, depth := "", rng.Intn(2)
			if len(w.delegs) > 0 && rng.Intn(2) == 0 {
				delegator, depth = w.delegs[rng.Intn(len(w.delegs))].Cert.Subject.Name, 0
			}
			if delegator == u {
				continue
			}
			d, err := f.est.AA.IssueDelegation(delegator, w.bound(u), "G_read", depth, "read", valid)
			if err != nil {
				t.Fatal(err)
			}
			w.delegs = append(w.delegs, d)
			return fmt.Sprintf("delegation %s>%s depth %d", delegator, u, depth), Delegation{Cert: d}
		case 4, 5:
			at := effective(rng, now)
			var (
				what string
				rev  pki.Signed[pki.Revocation]
				err  error
			)
			switch u := users[rng.Intn(len(users))]; rng.Intn(6) {
			case 0:
				what = "G_write"
				rev, err = f.ra.Revoke(f.writeAC, at)
			case 1:
				what = "G_read"
				rev, err = f.ra.Revoke(f.readAC, at)
			case 2:
				what = "G_sub"
				rev, err = f.ra.Revoke(w.subAC, at)
			case 3:
				what = "G_gsub"
				rev, err = f.ra.Revoke(w.gsubAC, at)
			case 4:
				what = "selective " + u
				rev, err = f.ra.RevokeAttribute(w.single[u], at)
			default:
				what = "chain link " + u
				rev, err = f.ra.RevokeSubject("G_read", w.bound(u), at)
			}
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				continue // pending: delivered by a later CRL
			}
			return fmt.Sprintf("revoke %s effective %s", what, at), Revocation{Cert: rev}
		case 6:
			crl, err := f.ra.PublishCRL()
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("CRL of %d entries", len(crl.CRL.Entries)), CRL{List: crl}
		case 7, 8:
			u := users[rng.Intn(len(users))]
			caName, subject := "CA"+u[len(u)-1:], u
			switch rng.Intn(8) {
			case 0:
				subject = caName // the CA revokes its own key
			case 1:
				caName, subject = "CA1", "AA"
			}
			ca := f.cas[caName]
			at := effective(rng, now)
			rev, err := ca.RevokeIdentity(subject, at)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%s revokes the key of %s effective %s", caName, subject, at), IdentityRevocation{Cert: rev}
		case 9:
			return "re-anchor", Reanchor{Anchors: f.anchors(0)}
		}
	}
}

// verdict is the part of a decision the three paths must agree on.
type verdict struct {
	Allowed    bool
	DeniedStep string
	Reason     string
}

func verdictOf(dec Decision) verdict { return verdict{dec.Allowed, dec.DeniedStep, dec.Reason} }

// decideThreeWays decides req on the live server, with residues disabled,
// and on a copy of the current snapshot with an empty certificate cache.
// It returns the live decision and the other two verdicts.
func (w *world) decideThreeWays(req AccessRequest) (live Decision, full, cold verdict) {
	live, _ = w.srv.Authorize(w.ctx, req)

	w.srv.SetResidualsEnabled(false)
	dec, _ := w.srv.Authorize(w.ctx, req)
	w.srv.SetResidualsEnabled(true)
	full = verdictOf(dec)

	st := w.srv.state.Load()
	empty := *st
	empty.cache = newCertCache()
	w.srv.state.Store(&empty)
	dec, _ = w.srv.Authorize(w.ctx, req)
	w.srv.state.Store(st)
	return live, full, verdictOf(dec)
}

// runHistory plays steps random steps from seed and reports the first
// disagreement with the history that led to it.
func runHistory(t *testing.T, seed int64, steps int) *world {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := newWorld(t)
	var history []string
	for i := 0; i < steps; i++ {
		w.f.clk.Advance(int64(rng.Intn(2)))
		if rng.Intn(3) == 0 {
			what, m := w.randomMutation(t, rng)
			err := w.srv.Apply(w.ctx, m)
			history = append(history, fmt.Sprintf("t%d %s (err %v)", w.f.clk.Now(), what, err))
		}
		what, req := w.randomRequest(t, rng)
		history = append(history, fmt.Sprintf("t%d %s", w.f.clk.Now(), what))
		dec, full, cold := w.decideThreeWays(req)
		if live := verdictOf(dec); live != full || live != cold {
			t.Fatalf("seed %d step %d: decisions disagree\n live: %+v\n full: %+v\n cold: %+v\nhistory:\n  %s",
				seed, i, live, full, cold, strings.Join(history, "\n  "))
		}
		// One rendering rule: the audit trace is the decision's proof,
		// whichever path rendered it.
		if dec.Proof != nil {
			if e, ok := w.log.ByRequestID(dec.RequestID); !ok || e.ProofTrace != dec.Proof.String() {
				t.Fatalf("seed %d step %d: audit trace of %s differs from its proof", seed, i, dec.RequestID)
			}
		}
	}
	return w
}

// TestCarriedCacheDifferential runs seeded random histories and requires
// the carried cache to decide exactly like an empty cache and like full
// replay after every step. It also requires the histories to exercise
// what they test: entries carried across mutations, entries dropped by
// revocations, and warm decisions on the residual path.
func TestCarriedCacheDifferential(t *testing.T) {
	seeds, steps := 12, 80
	if testing.Short() {
		seeds = 4
	}
	var carried, dropped, hits int64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		w := runHistory(t, seed, steps)
		carried += counterTotal(w.reg, MetricCacheCarried)
		dropped += counterTotal(w.reg, MetricCacheInvalidated)
		hits += counterTotal(w.reg, MetricResidualHits)
	}
	if carried == 0 || dropped == 0 || hits == 0 {
		t.Fatalf("histories did not exercise the cache: carried %d, dropped %d, residual hits %d", carried, dropped, hits)
	}
}

// requireAgree decides req three ways and returns the shared verdict.
func (w *world) requireAgree(t *testing.T, req AccessRequest) verdict {
	t.Helper()
	dec, full, cold := w.decideThreeWays(req)
	live := verdictOf(dec)
	if live != full || live != cold {
		t.Fatalf("decisions disagree\n live: %+v\n full: %+v\n cold: %+v", live, full, cold)
	}
	return live
}

// TestCAKeyRevocationDeniesCachedIdentities: a CA revoking its own key
// drops the identities it signed from the carried cache, and requests
// presenting them are denied as the full derivation denies them, while
// the other CAs' entries carry over.
func TestCAKeyRevocationDeniesCachedIdentities(t *testing.T) {
	w := newWorld(t)
	req := w.request(t, AccessRequest{Threshold: w.f.writeAC}, acl.Write, []byte("w"), "User_D1", "User_D2")
	for i := 0; i < 2; i++ {
		if v := w.requireAgree(t, req); !v.Allowed {
			t.Fatalf("warm-up %d denied: %+v", i, v)
		}
	}
	rev, err := w.f.cas["CA1"].RevokeIdentity("CA1", w.f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.srv.Apply(w.ctx, IdentityRevocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	if counterTotal(w.reg, MetricCacheInvalidated) == 0 || counterTotal(w.reg, MetricCacheCarried) == 0 {
		t.Fatalf("CA1's key revocation: dropped %d, carried %d entries; want both > 0",
			counterTotal(w.reg, MetricCacheInvalidated), counterTotal(w.reg, MetricCacheCarried))
	}
	w.f.clk.Tick()
	v := w.requireAgree(t, w.request(t, AccessRequest{Threshold: w.f.writeAC}, acl.Write, []byte("w"), "User_D1", "User_D2"))
	if v.Allowed || v.Reason != "no key belief for CA CA1" {
		t.Fatalf("request with a CA1 identity after CA1's key revocation: %+v", v)
	}
	// User_D2 and User_D3 hold CA2 and CA3 identities: still allowed.
	if v := w.requireAgree(t, w.request(t, AccessRequest{Threshold: w.f.writeAC}, acl.Write, []byte("w"), "User_D2", "User_D3")); !v.Allowed {
		t.Fatalf("request without CA1 identities denied: %+v", v)
	}
}

// TestGroupLinkKeepsWarmRequestsResidual: a group link falsifies nothing,
// so it carries every cache entry and a warm request stays on the
// residual path — authz_residual_fallbacks_total does not move.
func TestGroupLinkKeepsWarmRequestsResidual(t *testing.T) {
	w := newWorld(t)
	req := w.request(t, AccessRequest{Threshold: w.f.writeAC}, acl.Write, []byte("w"), "User_D1", "User_D2")
	for i := 0; i < 2; i++ {
		if dec, err := w.srv.Authorize(w.ctx, req); err != nil || !dec.Allowed {
			t.Fatalf("warm-up %d: %+v %v", i, dec, err)
		}
	}
	if err := w.srv.Apply(w.ctx, GroupLink{Cert: w.link}); err != nil {
		t.Fatal(err)
	}
	if got := counterTotal(w.reg, MetricCacheInvalidated); got != 0 {
		t.Fatalf("group link dropped %d cache entries", got)
	}
	fallbacks := counterTotal(w.reg, MetricResidualFallbacks)
	hits := counterTotal(w.reg, MetricResidualHits)
	if dec, err := w.srv.Authorize(w.ctx, req); err != nil || !dec.Allowed {
		t.Fatalf("warm request after the group link: %+v %v", dec, err)
	}
	if got := counterTotal(w.reg, MetricResidualFallbacks); got != fallbacks {
		t.Fatalf("warm request fell back after a group link (fallbacks %d -> %d)", fallbacks, got)
	}
	if got := counterTotal(w.reg, MetricResidualHits); got != hits+1 {
		t.Fatalf("warm request not decided on the residual path (hits %d -> %d)", hits, got)
	}
}

// TestCachedIdentityAfterCAKeyRevocationTakesHold is a shrunk
// counterexample of the differential test (seed 7): a CA key revocation
// effective in the future leaves the CA's key valid for a while, so an
// identity it signed is verified and cached again in the new snapshot.
// Once the revocation takes hold, that cache hit must deny as the
// derivation does — the hit re-checks the signer's key, not only the
// subject's.
func TestCachedIdentityAfterCAKeyRevocationTakesHold(t *testing.T) {
	w := newWorld(t)
	rev, err := w.f.cas["CA2"].RevokeIdentity("CA2", w.f.clk.Now()+2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.srv.Apply(w.ctx, IdentityRevocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	build := func() AccessRequest {
		return w.request(t, AccessRequest{Threshold: w.f.writeAC}, acl.Write, []byte("w"), "User_D2", "User_D1")
	}
	if v := w.requireAgree(t, build()); !v.Allowed {
		t.Fatalf("request before the revocation takes hold: %+v", v)
	}
	w.f.clk.Advance(3)
	if v := w.requireAgree(t, build()); v.Allowed || v.Reason != "no key belief for CA CA2" {
		t.Fatalf("request after CA2's key revocation took hold: %+v", v)
	}
}

// TestCacheHitKeyRevocationReasonMatchesDerivation is a shrunk
// counterexample of the differential test (seed 1): an identity key
// revocation effective in the future takes hold while the certificate's
// verification is cached. The cache hit must deny with the derivation's
// own reason. (Membership revocations take effect when processed, so a
// cached membership never sees one take hold later.)
func TestCacheHitKeyRevocationReasonMatchesDerivation(t *testing.T) {
	w := newWorld(t)
	rev, err := w.f.cas["CA3"].RevokeIdentity("User_D3", w.f.clk.Now()+2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.srv.Apply(w.ctx, IdentityRevocation{Cert: rev}); err != nil {
		t.Fatal(err)
	}
	build := func() AccessRequest {
		return w.request(t, AccessRequest{Threshold: w.f.writeAC}, acl.Write, []byte("w"), "User_D3", "User_D1")
	}
	if v := w.requireAgree(t, build()); !v.Allowed {
		t.Fatalf("request before the revocation takes hold: %+v", v)
	}
	w.f.clk.Advance(3)
	if v := w.requireAgree(t, build()); v.Allowed || v.DeniedStep != StepCerts {
		t.Fatalf("request signed with a revoked key: %+v", v)
	}
}
