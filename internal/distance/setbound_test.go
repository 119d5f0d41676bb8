package distance

import (
	"math"
	"slices"
	"testing"
)

// boundCase is one prepared side and one stored run decoded from fuzz
// bytes, with everything SetBound and the kernels read of them.
type boundCase struct {
	p      Prepared
	ids    []int32
	counts []uint32 // nil: every count 1
	sw     []float64
	idf    bool
	pL     bool
	known  bool
}

// decodeBound decodes data into a case over a vocabulary of 200 slots: a
// flag byte (IDF weights, p as l, the run's sums known, ids forced into
// four signature bits), then a length-prefixed list of p's tokens (id byte,
// count byte; an id byte of 255 is a token outside the vocabulary, which
// p may hold only as r), then the run's tokens likewise, then IDF weights.
// p is prepared as a table prepares a side: count × column weight, Held,
// with every token, out-of-vocabulary ones included, in Sum, Norm and N.
func decodeBound(data []byte) boundCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	flags := next()
	c := boundCase{idf: flags&1 != 0, pL: flags&2 != 0, known: flags&4 != 0}
	const vocab = 200
	slot := func(b byte) int32 {
		if flags&8 != 0 {
			// Four signature bits: ids 64 apart collide.
			return int32(b&3) + 64*int32(b>>2&1) + 128*int32(b>>3&1)
		}
		return int32(b) % vocab
	}
	type tok struct {
		id    int32
		count uint32
	}
	readToks := func(oov bool) []tok {
		n := int(next() % 24)
		var ts []tok
		for k := 0; k < n; k++ {
			b, cnt := next(), uint32(next()%4)+1
			if cnt == 4 {
				cnt = 300 // past 255
			}
			id := slot(b)
			if oov && b == 255 {
				id = -1
			} else if slices.ContainsFunc(ts, func(t tok) bool { return t.id == id }) {
				continue
			}
			ts = append(ts, tok{id, cnt})
		}
		return ts
	}
	ptoks := readToks(!c.pL)
	rtoks := readToks(false)
	c.sw = make([]float64, vocab)
	for id := range c.sw {
		c.sw[id] = 0.25 + float64(next())/16
	}
	unseen := 9.5
	c.p.W = make([]float64, vocab)
	var norm float64
	for _, t := range ptoks {
		x := float64(t.count)
		if c.idf {
			x = float64(float64(t.count) * unseen)
			if t.id >= 0 {
				x = float64(float64(t.count) * c.sw[t.id])
			}
		}
		if t.id >= 0 {
			c.p.Hold(t.id, x)
		} else {
			c.p.OOV = true
		}
		c.p.Sum += x
		norm += float64(x * x)
		c.p.N++
	}
	c.p.Norm = math.Sqrt(norm)
	slices.SortFunc(rtoks, func(a, b tok) int { return int(a.id - b.id) })
	ones := true
	for _, t := range rtoks {
		c.ids = append(c.ids, t.id)
		c.counts = append(c.counts, t.count)
		ones = ones && t.count == 1
	}
	if ones {
		c.counts = nil
	}
	return c
}

// FuzzSetBound: every member of SetBound is at most the kernel's value,
// over an IDF and an equal-weight run, stored counted or as all ones, in
// uint16 and int32 slots, with the run's Sum and Norm known or not, in
// both orientations, with out-of-vocabulary tokens on a query side, empty
// sides, and ids forced to collide in the signature. The seeds include a
// pair of equal sets, where the bound meets the kernel's value up to
// rounding and only the slack keeps it below.
func FuzzSetBound(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 3, 7, 1, 9, 2, 11, 1})                                                            // an empty side
	f.Add([]byte{0, 3, 7, 1, 9, 2, 11, 1, 3, 7, 1, 9, 2, 11, 1})                                         // equal sets, counted
	f.Add([]byte{5, 3, 7, 1, 9, 1, 11, 1, 3, 7, 1, 9, 1, 11, 1})                                         // equal sets, IDF, sums known
	f.Add([]byte{7, 4, 1, 1, 65, 1, 129, 1, 200, 1, 2, 1, 1, 3, 1})                                      // p as l, sums known
	f.Add([]byte{4, 4, 7, 1, 255, 1, 9, 2, 255, 3, 3, 7, 1, 9, 2, 100, 1})                               // out-of-vocabulary query tokens
	f.Add([]byte{13, 6, 1, 1, 2, 1, 3, 1, 5, 1, 6, 1, 7, 1, 6, 9, 1, 10, 1, 11, 1, 12, 1, 13, 1, 14, 1}) // collisions
	f.Add([]byte{15, 5, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 3, 8, 1, 9, 1, 10, 1})                             // collisions, p as l, IDF, known
	for _, n := range []int{6, 14, 23} {
		seed := []byte{5, byte(n)}
		for k := 0; k < n; k++ {
			seed = append(seed, byte(3*k+1), 1)
		}
		seed = append(seed, byte(n))
		for k := 0; k < n; k++ {
			seed = append(seed, byte(3*k+1), 1)
		}
		for k := 0; k < 200; k++ {
			seed = append(seed, byte(k*37))
		}
		f.Add(seed) // equal IDF sets of n tokens with varied weights
	}
	all := SetNeed{JD: true, CD: true, DD: true, MD: true, ID: true, CJD: true, CCD: true, CDD: true}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeBound(data)
		narrow := make([]uint16, len(c.ids))
		for k, id := range c.ids {
			narrow[k] = uint16(id)
		}
		var got [2]SetDists
		var sum, norm float64
		if c.idf {
			var s2, n2 float64
			got[0], sum, norm = SetFamilyIDF(&c.p, c.ids, c.counts, c.sw, c.pL)
			got[1], s2, n2 = SetFamilyIDF(&c.p, narrow, c.counts, c.sw, c.pL)
			if c.p.N > 0 && (s2 != sum || n2 != norm) {
				t.Fatalf("the slot widths accumulate Sum and Norm %v, %v and %v, %v", sum, norm, s2, n2)
			}
		} else {
			got[0] = SetFamilyRun(&c.p, c.ids, c.counts, c.pL)
			got[1] = SetFamilyRun(&c.p, narrow, c.counts, c.pL)
			for k := range c.ids {
				x := 1.0
				if c.counts != nil {
					x = float64(c.counts[k])
				}
				sum += x
				norm += float64(x * x)
			}
			norm = math.Sqrt(norm)
		}
		if got[0] != got[1] {
			t.Fatalf("int32 slots %+v, uint16 slots %+v", got[0], got[1])
		}
		r := Run{N: len(c.ids), CMax: 1, Known: c.known && (c.p.N > 0 || !c.idf)}
		for k, id := range c.ids {
			r.Sig |= SigBit(id)
			if c.counts != nil {
				r.CMax = max(r.CMax, c.counts[k])
			}
		}
		if r.Known {
			r.Sum, r.Norm = sum, norm
		}
		var bd SetDists
		SetBound(&c.p, &r, c.pL, all, &bd)
		k := got[0]
		if bd.JD > k.JD || bd.CD > k.CD || bd.DD > k.DD || bd.MD > k.MD || bd.ID > k.ID || bd.CJD > k.CJD || bd.CCD > k.CCD || bd.CDD > k.CDD {
			t.Fatalf("SetBound %+v exceeds the kernel's %+v (run %v counts %v, known %v, p as l %v, IDF %v)", bd, k, c.ids, c.counts, r.Known, c.pL, c.idf)
		}
	})
}
