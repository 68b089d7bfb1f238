package main

import (
	cryptorand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"jointadmin/internal/acl"
	"jointadmin/internal/authority"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/sim/load"
)

// Fixture shape: the 1000-object, zipf-1.2 coalition of cmd/loadgen's
// default profile, so numbers here compare with BENCH_load.json.
const (
	fixtureObjects    = 1000
	fixturePrincipals = 100000
	fixtureGroupSize  = 3
	fixtureQuorum     = 2
	fixtureKeys       = 32
	fixtureChurnKeys  = 4
	fixtureBits       = 512
	fixturePool       = 256
	fixtureZipfS      = 1.2
	readFrac          = 0.55
	selectiveFrac     = 0.10
	denyFrac          = 0.05
	// clockStart is every clock's reading: nothing advances it, so
	// certificates, requests and revocations all carry this time.
	clockStart = clock.Time(100)
)

// fixture is every input a run feeds the program, generated from the
// seed before any timing starts: the trust anchors, the pre-signed
// request pool (with each request's expected outcome and its wire
// encoding), and the pre-issued mutation schedule.
type fixture struct {
	anchors   authz.TrustAnchors
	pool      []load.PooledRequest
	wire      []string // pool[i].Req as the JSON a wire client ships
	mutations []authz.Mutation
}

// seededStream is a deterministic byte stream (SHA-256 in counter mode)
// standing in for crypto/rand while the fixture is generated, so keys,
// shares and certificates are a function of the seed. Go's key
// generators call randutil.MaybeReadByte, which reads one byte or not at
// random; one-byte reads are therefore answered with zero without
// advancing the stream, which keeps the stream — and the keys — fixed.
type seededStream struct {
	mu   sync.Mutex
	seed int64
	ctr  uint64
	buf  []byte
}

func (s *seededStream) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	for n := 0; n < len(p); {
		if len(s.buf) == 0 {
			var block [16]byte
			binary.LittleEndian.PutUint64(block[:8], uint64(s.seed))
			binary.LittleEndian.PutUint64(block[8:], s.ctr)
			s.ctr++
			sum := sha256.Sum256(block[:])
			s.buf = sum[:]
		}
		c := copy(p[n:], s.buf)
		s.buf = s.buf[c:]
		n += c
	}
	return len(p), nil
}

// newFixture generates the inputs for seed. The authorities' key
// generators read crypto/rand.Reader with no way to pass another
// source, so the reader is swapped for a seeded stream for the duration
// (nothing else runs yet) and restored before returning.
func newFixture(seed int64, mutations int) (*fixture, error) {
	saved := cryptorand.Reader
	cryptorand.Reader = &seededStream{seed: seed}
	defer func() { cryptorand.Reader = saved }()

	rng := rand.New(rand.NewSource(seed))
	g := &generator{
		clk:         clock.New(clockStart),
		objectAt:    rng.Perm(fixtureObjects),
		principalAt: rng.Perm(fixturePrincipals),
		idCerts:     make(map[int]pki.Signed[pki.Identity]),
		groups:      make(map[int]objCerts),
		validity:    clock.NewInterval(50, clock.Time(1)<<40),
	}
	if err := g.authorities(); err != nil {
		return nil, err
	}
	f := &fixture{anchors: g.anchors()}
	var err error
	if f.pool, err = g.buildPool(); err != nil {
		return nil, err
	}
	f.wire = make([]string, len(f.pool))
	for i := range f.pool {
		b, err := json.Marshal(f.pool[i].Req)
		if err != nil {
			return nil, fmt.Errorf("encode pooled request %d: %w", i, err)
		}
		f.wire[i] = string(b)
	}
	if f.mutations, err = g.schedule(mutations); err != nil {
		return nil, err
	}
	return f, nil
}

// newServer is the program's start-up over the generated inputs: the
// object store with one ACL per object, and the server, whose
// construction compiles the residues of the first snapshot.
func (f *fixture) newServer(reg *obs.Registry) (*authz.Server, error) {
	clk := clock.New(clockStart)
	store := acl.NewStore(clk)
	for o := 0; o < fixtureObjects; o++ {
		objACL, err := acl.NewACL(
			acl.Entry{Group: writeGroup(o), Perms: []acl.Permission{acl.Write, acl.Modify}},
			acl.Entry{Group: readGroup(o), Perms: []acl.Permission{acl.Read}},
		)
		if err != nil {
			return nil, err
		}
		if err := store.Create(objectName(o), objACL, []byte("content-0"), writeGroup(o)); err != nil {
			return nil, err
		}
	}
	srv := authz.NewServer("P", clk, f.anchors, store, nil)
	srv.Instrument(reg)
	return srv, nil
}

func principalName(i int) string { return fmt.Sprintf("u%07d", i) }
func objectName(i int) string    { return fmt.Sprintf("obj%06d", i) }
func writeGroup(i int) string    { return fmt.Sprintf("Gw%06d", i) }
func readGroup(i int) string     { return fmt.Sprintf("Gr%06d", i) }

// objCerts is the certificate material of one materialized object.
type objCerts struct {
	write, read pki.Signed[pki.ThresholdAttribute]
	members     []int
}

// generator holds the authorities while the inputs are issued. Only the
// principals and groups the zipf-skewed pool touches are materialized.
type generator struct {
	clk *clock.Clock
	// objectAt and principalAt map popularity ranks to names' indices:
	// the seed decides who is hot, the stratified draws how hot.
	objectAt, principalAt []int
	memberDraws           int // draws of group members so far
	est                   *authority.EstablishResult
	ra                    *authority.RevocationAuthority
	cas                   []*authority.DomainCA
	keys                  []*pki.KeyPair
	keyIDs                []string
	churnKeys             []*pki.KeyPair
	idCerts               map[int]pki.Signed[pki.Identity]
	groups                map[int]objCerts
	validity              clock.Interval
}

var domains = []string{"D1", "D2", "D3"}

func (g *generator) authorities() error {
	var err error
	if g.est, err = authority.EstablishWithDealer("AA", domains, fixtureBits, g.clk); err != nil {
		return fmt.Errorf("establish AA: %w", err)
	}
	if g.ra, err = authority.NewRA("RA", fixtureBits, g.clk); err != nil {
		return fmt.Errorf("RA: %w", err)
	}
	for i := 1; i <= len(domains); i++ {
		ca, err := authority.NewDomainCA(fmt.Sprintf("CA%d", i), fixtureBits, g.clk)
		if err != nil {
			return fmt.Errorf("CA%d: %w", i, err)
		}
		g.cas = append(g.cas, ca)
	}
	// Churn keys are disjoint from the pool keys: revoking an identity
	// revokes its key binding, and pool principals share keys.
	for i := 0; i < fixtureKeys+fixtureChurnKeys; i++ {
		kp, err := pki.GenerateKeyPair(fixtureBits, nil)
		if err != nil {
			return fmt.Errorf("user key %d: %w", i, err)
		}
		if i < fixtureKeys {
			g.keys = append(g.keys, kp)
			g.keyIDs = append(g.keyIDs, kp.KeyID())
		} else {
			g.churnKeys = append(g.churnKeys, kp)
		}
	}
	return nil
}

func (g *generator) anchors() authz.TrustAnchors {
	a := authz.TrustAnchors{
		AAName:  "AA",
		AAKey:   g.est.AA.Public(),
		Domains: domains,
		CAKeys:  make(map[string]sharedrsa.PublicKey, len(g.cas)),
		RAName:  "RA",
		RAKey:   g.ra.Public(),
	}
	for _, ca := range g.cas {
		a.CAKeys[ca.Name()] = ca.Public()
	}
	return a
}

func (g *generator) identityOf(i int) (pki.Signed[pki.Identity], error) {
	if c, ok := g.idCerts[i]; ok {
		return c, nil
	}
	ca := g.cas[i%len(g.cas)]
	ca.Register(principalName(i), g.keys[i%len(g.keys)].Public())
	c, err := ca.IssueIdentity(principalName(i), g.validity)
	if err != nil {
		return c, fmt.Errorf("identity of %s: %w", principalName(i), err)
	}
	g.idCerts[i] = c
	return c, nil
}

func (g *generator) groupsOf(o int) (objCerts, error) {
	if c, ok := g.groups[o]; ok {
		return c, nil
	}
	seen := make(map[int]bool, fixtureGroupSize)
	members := make([]int, 0, fixtureGroupSize)
	for len(members) < fixtureGroupSize {
		r := principalRanks.at(stratum(g.memberDraws, sqrt3m1))
		g.memberDraws++
		for seen[r] {
			r = (r + 1) % fixturePrincipals
		}
		seen[r] = true
		members = append(members, g.principalAt[r])
	}
	subjects := make([]pki.BoundSubject, len(members))
	for j, i := range members {
		subjects[j] = pki.BoundSubject{Name: principalName(i), KeyID: g.keyIDs[i%len(g.keys)]}
	}
	wc, err := g.est.AA.IssueThreshold(writeGroup(o), fixtureQuorum, subjects, g.validity)
	if err != nil {
		return objCerts{}, fmt.Errorf("write group of %s: %w", objectName(o), err)
	}
	rc, err := g.est.AA.IssueThreshold(readGroup(o), 1, subjects, g.validity)
	if err != nil {
		return objCerts{}, fmt.Errorf("read group of %s: %w", objectName(o), err)
	}
	c := objCerts{write: wc, read: rc, members: members}
	g.groups[o] = c
	return c, nil
}

// buildPool pre-signs the request pool: zipf-hot objects and signers;
// joint writes, threshold reads, selective (single-subject) reads and
// sub-quorum writes that must be denied, in the shares the constants
// above fix.
//
// Objects, group members and kinds are drawn at stratified points
// (golden-ratio-style sequences, one irrational per draw so the draws are
// independent) rather than from the seed. The pool then has the same
// shape for every seed — how many entries share an object or a signer,
// and so how many fall back to full replay after a mutation — and a
// seed changes only who is hot, the keys and the signatures. With
// random draws that count moved by ±10% from seed to seed, and the
// run's throughput with it.
func (g *generator) buildPool() ([]load.PooledRequest, error) {
	pool := make([]load.PooledRequest, 0, fixturePool)
	for n := 0; n < fixturePool; n++ {
		o := g.objectAt[objectRanks.at(stratum(n, sqrt2m1))]
		oc, err := g.groupsOf(o)
		if err != nil {
			return nil, err
		}
		kind := "write"
		switch x := stratum(n, phi); {
		case x < readFrac:
			kind = "read"
		case x < readFrac+selectiveFrac:
			kind = "selective"
		case x < readFrac+selectiveFrac+denyFrac:
			kind = "deny"
		}
		pr, err := g.request(kind, o, oc, n)
		if err != nil {
			return nil, err
		}
		pool = append(pool, pr)
	}
	return pool, nil
}

// Irrationals for the stratified draws; 1, phi, sqrt2m1 and sqrt3m1 are
// linearly independent over the rationals, so the sequences are jointly
// equidistributed.
const (
	phi     = 0.6180339887498949
	sqrt2m1 = 0.41421356237309515
	sqrt3m1 = 0.7320508075688772
)

// stratum is the n-th point of the Kronecker sequence of alpha in [0, 1).
func stratum(n int, alpha float64) float64 {
	_, frac := math.Modf((float64(n) + 0.5) * alpha)
	return frac
}

// zipfRanks inverts the zipf CDF: P(rank r) ∝ (r+1)^-s.
type zipfRanks []float64

var (
	objectRanks    = newZipfRanks(fixtureObjects, fixtureZipfS)
	principalRanks = newZipfRanks(fixturePrincipals, fixtureZipfS)
)

func newZipfRanks(n int, s float64) zipfRanks {
	cdf := make(zipfRanks, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// at is the rank whose CDF interval holds u.
func (z zipfRanks) at(u float64) int {
	r := sort.SearchFloat64s(z, u)
	if r >= len(z) {
		r = len(z) - 1
	}
	return r
}

func (g *generator) request(kind string, o int, oc objCerts, seq int) (load.PooledRequest, error) {
	object := objectName(o)
	pr := load.PooledRequest{Kind: kind, Object: object, WantAllow: kind != "deny"}
	sign := func(signers []int, op acl.Permission, payload []byte) error {
		for _, i := range signers {
			idc, err := g.identityOf(i)
			if err != nil {
				return err
			}
			r, err := authz.SignRequest(principalName(i), g.clk.Now(), op, object, payload, g.keys[i%len(g.keys)])
			if err != nil {
				return err
			}
			pr.Req.Identities = append(pr.Req.Identities, idc)
			pr.Req.Requests = append(pr.Req.Requests, r)
		}
		return nil
	}
	var err error
	switch kind {
	case "read":
		pr.Req.Threshold = oc.read
		err = sign(oc.members[:1], acl.Read, nil)
	case "selective":
		i := oc.members[len(oc.members)-1]
		sub := pki.BoundSubject{Name: principalName(i), KeyID: g.keyIDs[i%len(g.keys)]}
		cert, ierr := g.est.AA.IssueAttribute(readGroup(o), sub, g.validity)
		if ierr != nil {
			return pr, fmt.Errorf("selective cert: %w", ierr)
		}
		pr.Req.SingleSubject = true
		pr.Req.Single = cert
		err = sign([]int{i}, acl.Read, nil)
	case "deny":
		pr.Req.Threshold = oc.write
		err = sign(oc.members[:1], acl.Write, []byte(fmt.Sprintf("v%d", seq)))
	default:
		pr.Req.Threshold = oc.write
		err = sign(oc.members[:fixtureQuorum], acl.Write, []byte(fmt.Sprintf("v%d", seq)))
	}
	return pr, err
}

// schedule pre-issues n mutations cycling the three kinds of belief
// churn: a join (a fresh subgroup linked into a materialized read
// group), the identity revocation of a cold principal (never a signer,
// so no pooled outcome flips), and a CRL carrying one more revoked
// throwaway group. The RA's list grows, so the i-th CRL holds i/3+1
// revocations, as it would in a live coalition.
func (g *generator) schedule(n int) ([]authz.Mutation, error) {
	// Joins target the read groups of the hottest objects, in turn.
	var hot []int
	for r := 0; len(hot) < 4 && r < fixtureObjects; r++ {
		if _, ok := g.groups[g.objectAt[r]]; ok {
			hot = append(hot, g.objectAt[r])
		}
	}
	out := make([]authz.Mutation, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			o := hot[(i/3)%len(hot)]
			link, err := g.est.AA.IssueGroupLink(fmt.Sprintf("Gjoin%06d", i), readGroup(o), g.validity)
			if err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			out = append(out, authz.GroupLink{Cert: link})
		case 1:
			name := fmt.Sprintf("churn-u%d", i)
			ca := g.cas[i%len(g.cas)]
			ca.Register(name, g.churnKeys[i%len(g.churnKeys)].Public())
			rev, err := ca.RevokeIdentity(name, g.clk.Now())
			if err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			out = append(out, authz.IdentityRevocation{Cert: rev})
		default:
			cert, err := g.est.AA.IssueThreshold(fmt.Sprintf("Gchurn%06d", i), 1,
				[]pki.BoundSubject{{Name: principalName(0), KeyID: g.keyIDs[0]}}, g.validity)
			if err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			if _, err := g.ra.Revoke(cert, g.clk.Now()); err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			crl, err := g.ra.PublishCRL()
			if err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			out = append(out, authz.CRL{List: crl})
		}
	}
	return out, nil
}
