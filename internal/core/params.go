// Package core implements PLL, the leader election protocol of Sudo,
// Ooshita, Izumi, Kakugawa and Masuzawa, "Logarithmic Expected-Time Leader
// Election in Population Protocol Model" (PODC 2019), together with the
// symmetric variant sketched in Section 4 of the paper.
//
// PLL elects exactly one leader among n anonymous agents in O(log n)
// expected parallel time using O(log n) states per agent, given a rough
// upper bound m on log₂ n with m = Θ(log n). The protocol is the
// composition of three modules executed across four "epochs" driven by a
// count-up synchronization clock:
//
//	epoch 1        QuickElimination  — geometric-lottery elimination
//	epochs 2 and 3 Tournament        — uniform nonce tournament, run twice
//	epoch 4        BackUp            — level race + direct duels (safety net)
//
// The implementation follows Algorithms 1–5 of the paper line by line and
// corrects two slips of the pseudo code. Saturating counters are capped
// with min where the pseudo code writes max (the epoch at 4, the Tournament
// index at Φ, the levels at lmax). Followers take part in the Tournament's
// nonce epidemic: they enter V_A∩(V_2∪V_3) with index = Φ (see
// refreshOnEpochEntry).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Params carries the population size n and the paper's knowledge parameter
// m, together with the derived constants of Algorithm 1:
//
//	lmax = 5m    (cap of levelQ and levelB)
//	cmax = 41m   (period of the count-up timer)
//	Φ    = ⌈(2/3)·lg m⌉  (coin flips per Tournament nonce)
//
// The paper requires m ≥ log₂ n and m = Θ(log n). NewParams picks the
// canonical m = ⌈lg n⌉; NewParamsWithM validates an explicit choice;
// NewParamsUnchecked deliberately skips validation so failure-injection
// experiments can force synchronization failures and exercise the BackUp
// fallback path.
type Params struct {
	// N is the population size the parameters were derived for.
	N int
	// M is the knowledge parameter m.
	M int
	// LMax is lmax = 5m.
	LMax int
	// CMax is cmax = 41m.
	CMax int
	// Phi is Φ = ⌈(2/3)·lg m⌉.
	Phi int
}

// ErrInvalidParams reports a Params constructor rejection.
var ErrInvalidParams = errors.New("core: invalid parameters")

// CeilLog2 returns ⌈log₂ n⌉ for n ≥ 1.
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func derive(n, m int) Params {
	phi := 0
	if m > 1 {
		phi = int(math.Ceil(2.0 * math.Log2(float64(m)) / 3.0))
	}
	return Params{
		N:    n,
		M:    m,
		LMax: 5 * m,
		CMax: 41 * m,
		Phi:  phi,
	}
}

// NewParams returns the canonical parameters for a population of size n,
// choosing m = max(1, ⌈lg n⌉), which satisfies both paper requirements.
// It panics if n < 1.
func NewParams(n int) Params {
	if n < 1 {
		panic(fmt.Sprintf("core: population size %d < 1", n))
	}
	m := CeilLog2(n)
	if m < 1 {
		m = 1
	}
	return derive(n, m)
}

// NewParamsWithM returns parameters for an explicitly chosen m, enforcing
// the paper's requirement m ≥ log₂ n. (The Θ(log n) upper-bound side of the
// requirement cannot be checked for a single n and is the caller's
// responsibility: state usage grows linearly with m.)
func NewParamsWithM(n, m int) (Params, error) {
	if n < 1 {
		return Params{}, fmt.Errorf("%w: population size %d < 1", ErrInvalidParams, n)
	}
	if m < 1 {
		return Params{}, fmt.Errorf("%w: m = %d < 1", ErrInvalidParams, m)
	}
	if m < CeilLog2(n) {
		return Params{}, fmt.Errorf("%w: m = %d violates m ≥ log₂ n = %d",
			ErrInvalidParams, m, CeilLog2(n))
	}
	return derive(n, m), nil
}

// ParamsFor returns parameters for a population of size n with an
// explicitly chosen knowledge parameter m, where m = 0 selects the
// canonical m = max(1, ⌈lg n⌉). It is the error-returning constructor the
// command-line tools and the protocol registry share: invalid sizes come
// back as ErrInvalidParams instead of the panics of NewParams.
func ParamsFor(n, m int) (Params, error) {
	if m == 0 {
		m = max(CeilLog2(n), 1)
	}
	return NewParamsWithM(n, m)
}

// NewParamsUnchecked returns parameters without validating m ≥ log₂ n.
// Undersized m makes the count-up clock tick too fast for epidemics to
// complete, which is precisely the "synchronization fails" regime the paper
// covers with the BackUp module; experiments use this constructor to
// exercise that path. It panics on non-positive arguments.
func NewParamsUnchecked(n, m int) Params {
	if n < 1 || m < 1 {
		panic(fmt.Sprintf("core: non-positive parameters n=%d m=%d", n, m))
	}
	return derive(n, m)
}

// RandSpace returns 2^Φ, the size of the Tournament nonce domain.
func (p Params) RandSpace() int { return 1 << p.Phi }

// WithPhi returns a copy of p with the Tournament nonce width overridden.
// The paper fixes Φ = ⌈(2/3)·lg m⌉ as its state/time sweet spot (§3.2.4:
// two short tournaments replace one ⌈lg m⌉-bit tournament); this override
// exists for the ablation experiment that measures that trade-off. It
// panics for phi outside [0, 16].
func (p Params) WithPhi(phi int) Params {
	if phi < 0 || phi > 16 {
		panic(fmt.Sprintf("core: ablation Φ = %d outside [0, 16]", phi))
	}
	p.Phi = phi
	return p
}

// StateSpaceSize returns the number of agent states counted exactly as
// Table 3 of the paper counts them: the product of the common-variable
// domains with the per-group additional-variable domains,
//
//	|Q| = c·( 1·[V_X] + cmax·[V_B] + 2(lmax+1)·[V_A∩V_1]
//	          + 2·2^Φ(Φ+1)·[V_A∩(V_2∪V_3)] + (lmax+1)·[V_A∩V_4] )
//
// with the constant common factor c = leader(2)·tick(2)·init(4)·color(3).
// This is the quantity Lemma 3 proves to be O(log n); the Lemma 3
// experiment verifies both this formula's linear growth in m and that the
// states actually observed in execution stay below it.
func (p Params) StateSpaceSize() int {
	common := 2 * 2 * 4 * 3 // leader × tick × init × color
	vx := common            // status X, epoch 1
	vb := common * 4 * p.CMax
	va1 := common * 2 * (p.LMax + 1)                 // done × levelQ
	va23 := common * 2 * p.RandSpace() * (p.Phi + 1) // two epochs × rand × index
	va4 := common * (p.LMax + 1)                     // levelB
	return vx + vb + va1 + va23 + va4
}

// Validate checks internal consistency of a Params value (whatever its
// provenance), returning a descriptive error for out-of-range fields.
func (p Params) Validate() error {
	switch {
	case p.N < 1:
		return fmt.Errorf("%w: N = %d", ErrInvalidParams, p.N)
	case p.M < 1:
		return fmt.Errorf("%w: M = %d", ErrInvalidParams, p.M)
	case p.LMax != 5*p.M:
		return fmt.Errorf("%w: LMax = %d, want 5m = %d", ErrInvalidParams, p.LMax, 5*p.M)
	case p.CMax != 41*p.M:
		return fmt.Errorf("%w: CMax = %d, want 41m = %d", ErrInvalidParams, p.CMax, 41*p.M)
	case p.Phi < 0 || p.Phi > 64:
		return fmt.Errorf("%w: Phi = %d", ErrInvalidParams, p.Phi)
	}
	return nil
}
