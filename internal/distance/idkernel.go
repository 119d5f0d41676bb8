package distance

import "math"

// This file holds the token-id form of the fused set-family kernel. The
// side of a run of pairs that never changes is prepared once into a table
// by token id (a vocabulary slot), 0 for a token it lacks, and the other
// side is scored from its stored run, a table read per token. Runs are in
// ascending token order, so matched tokens come in the string merge's
// order and a token the table lacks adds +0.0:
// every distance is bit-identical to SetFamily. A prepared query's tokens
// outside the vocabulary are in no table but count toward its Sum, Norm
// and N, so the r ⊆ l gate, matched tokens against r's N, fails as the
// string merge's would. A stored run never holds one.

// Prepared is one weighted token set prepared as the fixed side of a run
// of pairs.
type Prepared struct {
	W    []float64 // weight by token id; 0 for a token the set lacks
	Sum  float64   // sum of weights over ALL tokens, including out-of-vocabulary ones
	Norm float64   // sqrt of the weight square sum over ALL tokens
	N    int32     // distinct tokens, including out-of-vocabulary ones
}

// Slot is the integer type of a stored run's token ids: uint16 while a
// row block's vocabulary fits in 16 bits, int32 past it. The kernels are
// generic over it, so both widths run the same code.
type Slot interface{ ~uint16 | ~int32 }

// SetFamilyIDF evaluates the eight set distances between p and a stored
// run of distinct ids in ascending token order weighing counts[k] ×
// sw[ids[k]], its Sum and Norm accumulated in that order. A nil counts is
// a run whose every count is 1: its tokens weigh sw[ids[k]], the bits
// 1 × sw[ids[k]] has. pL reports whether p is the pair's reference side
// l.
//
//autofj:hotpath
func SetFamilyIDF[S Slot](p *Prepared, ids []S, counts []uint32, sw []float64, pL bool) SetDists {
	if p.N == 0 || len(ids) == 0 {
		return emptyFamily(p.N == 0, len(ids) == 0)
	}
	tab := p.W
	var sumMin, dot, sum, norm float64
	var m int32
	if counts == nil {
		for _, id := range ids {
			x := sw[id]
			f := tab[id]
			sumMin += minBits(f, x)
			dot += float64(f * x)
			sum += x
			norm += float64(x * x)
			m += present(f)
		}
	} else {
		counts = counts[:len(ids)]
		for k, id := range ids {
			x := float64(float64(counts[k]) * sw[id])
			f := tab[id]
			sumMin += minBits(f, x)
			dot += float64(f * x)
			sum += x
			norm += float64(x * x)
			m += present(f)
		}
	}
	return p.oriented(sumMin, dot, sum, math.Sqrt(norm), int32(len(ids)), m, pL)
}

// SetFamilyRun is SetFamilyIDF for a run weighing its counts as they
// are. Its Sum and Norm are the counts' own, accumulated in token order:
// a run of n ones has Sum n and Norm √n, exact either way.
//
//autofj:hotpath
func SetFamilyRun[S Slot](p *Prepared, ids []S, counts []uint32, pL bool) SetDists {
	if p.N == 0 || len(ids) == 0 {
		return emptyFamily(p.N == 0, len(ids) == 0)
	}
	tab := p.W
	var sumMin, dot, sum, norm float64
	var m int32
	if counts == nil {
		for _, id := range ids {
			f := tab[id]
			sumMin += minBits(f, 1)
			dot += f
			m += present(f)
		}
		// Σ1² = Σ1: the Norm of n ones is √n.
		sum = float64(len(ids))
		return p.oriented(sumMin, dot, sum, math.Sqrt(sum), int32(len(ids)), m, pL)
	}
	counts = counts[:len(ids)]
	for k, id := range ids {
		x := float64(counts[k])
		f := tab[id]
		sumMin += minBits(f, x)
		dot += float64(f * x)
		sum += x
		norm += float64(x * x)
		m += present(f)
	}
	return p.oriented(sumMin, dot, sum, math.Sqrt(norm), int32(len(ids)), m, pL)
}

// oriented applies the closed forms to one pair of p and a run of n
// tokens with the given Sum and Norm, m of which p holds: r ⊆ l exactly
// when every token of r matched.
func (p *Prepared) oriented(sumMin, dot, sum, norm float64, n, m int32, pL bool) SetDists {
	if pL {
		return family(p.Sum, p.Norm, sum, norm, sumMin, dot, m == n)
	}
	return family(sum, norm, p.Sum, p.Norm, sumMin, dot, m == p.N)
}

// minBits is the smaller of two non-negative floats, taken branch-free by
// their bits, which order as the floats do.
func minBits(a, b float64) float64 {
	return math.Float64frombits(min(math.Float64bits(a), math.Float64bits(b)))
}

// present is 1 when the non-negative f is not zero, else 0, branch-free.
func present(f float64) int32 {
	b := math.Float64bits(f)
	return int32((b | -b) >> 63)
}
