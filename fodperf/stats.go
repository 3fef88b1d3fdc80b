package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// quantileNS is the q-quantile of a sample with linear interpolation
// between order statistics (0 for an empty sample).
func quantileNS(xs []int64, q float64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return quantile(fs, q)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sample is one answered request: its latency and, for a page, the
// answers it carried.
type sample struct{ ns, n int64 }

func (t *tape) note(list *[]sample, d time.Duration, n int) {
	*list = append(*list, sample{ns: d.Nanoseconds(), n: int64(n)})
}

// latency is the Harrell–Davis q-quantile of the samples' latencies, in ns.
func latency(xs []sample, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ns := make([]float64, len(xs))
	for i, x := range xs {
		ns[i] = float64(x.ns)
	}
	sort.Float64s(ns)
	return hdQuantile(ns, q)
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile of sorted xs:
// a weighted mean of the order statistics with Beta((n+1)q, (n+1)(1−q))
// weights. Unlike a single order statistic it moves smoothly when a
// sample mixes requests of very different cost (dense and sparse pages,
// builds of different keys). Ranks beyond ten standard deviations of the
// Beta weight carry no weight and are skipped.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sd := math.Sqrt(q * (1 - q) / float64(n+2))
	lo := max(0, int((q-10*sd)*float64(n)))
	hi := min(n, int(math.Ceil((q+10*sd)*float64(n)))+1)
	sum, wsum := 0.0, 0.0
	prev := betaInc(a, b, float64(lo)/float64(n))
	for i := lo; i < hi; i++ {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * xs[i]
		wsum += cur - prev
		prev = cur
	}
	return sum / wsum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	bt := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return bt * betaFrac(a, b, x) / a
	}
	return 1 - bt*betaFrac(b, a, 1-x)/b
}

func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 100000; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-13 {
			break
		}
	}
	return h
}

// digest folds a tuple stream into a count, an FNV-1a hash of every
// component and the last tuple — all a page check needs to compare a
// served page with a reference page without keeping either.
type digest struct {
	n    int
	sum  uint64
	last []int
}

func newDigest() digest { return digest{sum: 14695981039346656037} }

func (d *digest) add(t []int) {
	for _, v := range t {
		d.sum ^= uint64(v)
		d.sum *= 1099511628211
	}
	d.n++
	d.last = append(d.last[:0], t...)
}

// errBody is the error half of the serve envelope.
type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// decodeData decodes a serve envelope, placing its data into out.
func decodeData(b []byte, out any) error {
	env := struct {
		Data  any      `json:"data"`
		Error *errBody `json:"error"`
	}{Data: out}
	if err := json.Unmarshal(b, &env); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if env.Error != nil {
		return fmt.Errorf("server error %s: %s", env.Error.Code, env.Error.Message)
	}
	return nil
}

// solutionsKey marks the tuple array inside a page envelope.
var solutionsKey = []byte(`"solutions":`)

// decodePage decodes a page envelope, handing each tuple to fn (the slice
// is reused). The tuple array is scanned in place and only the few other
// fields go through encoding/json, so the client's share of the two cores
// stays small.
func decodePage(b []byte, arity int, out *pageData, fn func([]int)) error {
	i := bytes.Index(b, solutionsKey)
	if i < 0 {
		return decodeData(b, out)
	}
	i += len(solutionsKey)
	n, err := scanTuples(b[i:], arity, fn)
	if err != nil {
		return err
	}
	rest := make([]byte, 0, i+2+len(b)-i-n)
	rest = append(append(append(rest, b[:i]...), "[]"...), b[i+n:]...)
	return decodeData(rest, out)
}

// scanTuples walks the JSON array of int tuples at the start of raw
// (leading blanks allowed), calling fn with each tuple, and returns the
// length of the array text.
func scanTuples(raw []byte, arity int, fn func([]int)) (int, error) {
	t := make([]int, 0, arity)
	depth, num, neg, inNum := 0, 0, false, false
	for i, c := range raw {
		switch {
		case c >= '0' && c <= '9':
			num = num*10 + int(c-'0')
			inNum = true
			continue
		case c == '-':
			neg = true
			continue
		}
		if inNum {
			if neg {
				num = -num
			}
			t = append(t, num)
			num, neg, inNum = 0, false, false
		}
		switch c {
		case '[':
			depth++
			if depth > 2 {
				return 0, errors.New("page nests deeper than tuples")
			}
		case ']':
			if depth == 2 {
				if len(t) != arity {
					return 0, fmt.Errorf("tuple of width %d, query arity is %d", len(t), arity)
				}
				fn(t)
				t = t[:0]
			}
			depth--
			if depth == 0 {
				return i + 1, nil
			}
		case ' ', '\n', '\t', '\r', ',':
		default:
			return 0, fmt.Errorf("unexpected %q in the tuple array", c)
		}
	}
	return 0, errors.New("unterminated tuple array")
}
