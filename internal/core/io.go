package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Output size estimate for WriteCSV: the fixed header text, and one row of
// three numbers below 10⁶ with four decimals each (at most 36 bytes).
const (
	csvHeaderBytes = 96
	csvRowBytes    = 40
)

// WriteCSV serializes the family in the release format of the Mess
// measurement data: a header comment with the label and theoretical
// bandwidth, then one row per point:
//
//	# label: Intel Skylake
//	# theoretical_bw_gbs: 128.0000
//	read_ratio,bw_gbs,latency_ns
//	1.0000,1.2000,89.1000
//	...
//
// Every number is printed exactly as fmt's %.4f would print it. The file
// is built in one buffer and handed to w in a single Write. A label
// containing a newline cannot be read back, so it is an error.
func (f *Family) WriteCSV(w io.Writer) error {
	if strings.IndexByte(f.Label, '\n') >= 0 {
		return fmt.Errorf("core: label %q contains a newline", f.Label)
	}
	rows := 0
	for _, c := range f.Curves {
		rows += len(c.Points)
	}
	b := make([]byte, 0, csvHeaderBytes+len(f.Label)+rows*csvRowBytes)
	b = append(b, "# label: "...)
	b = append(b, f.Label...)
	b = append(b, "\n# theoretical_bw_gbs: "...)
	b = appendFixed4(b, f.TheoreticalBW)
	b = append(b, "\nread_ratio,bw_gbs,latency_ns\n"...)
	var ratioBuf [32]byte
	for _, c := range f.Curves {
		ratio := appendFixed4(ratioBuf[:0], c.ReadRatio)
		for _, p := range c.Points {
			b = append(b, ratio...)
			b = append(b, ',')
			b = appendFixed4(b, p.BW)
			b = append(b, ',')
			b = appendFixed4(b, p.Latency)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// appendFixed4 appends v with four decimals, byte-identical to
// strconv.AppendFloat(dst, v, 'f', 4, 64) and so to fmt's %.4f. strconv
// takes its exact multi-precision path for every fixed-precision 'f'
// format; this computes the same correctly rounded result in integers.
// With v = mant·2^exp, v·10⁴ = (mant·10⁴)·2^exp, where mant·10⁴ < 2^67
// fits a 128-bit product, and the shift's remainder rounds half to even,
// as strconv does. Negative (including -0), non-finite and ≥ 1e15 values,
// whose scaled form may not fit 64 bits, are left to strconv.
func appendFixed4(dst []byte, v float64) []byte {
	if !(v >= 0 && v < 1e15) || math.Signbit(v) {
		return strconv.AppendFloat(dst, v, 'f', 4, 64)
	}
	fb := math.Float64bits(v)
	mant := fb & (1<<52 - 1)
	exp := int(fb >> 52) // the sign bit is clear
	if exp == 0 {
		exp = 1 // subnormal: no implicit leading bit
	} else {
		mant |= 1 << 52
	}
	exp -= 1075 // v = mant · 2^exp

	var n uint64 // v·10⁴ rounded half to even
	switch {
	case exp >= 0:
		n = mant << uint(exp) * 10000 // v is an integer below 1e15
	case exp > -68:
		hi, lo := bits.Mul64(mant, 10000)
		s := uint(-exp) // 1..67
		var round, sticky bool
		if s < 64 {
			n = hi<<(64-s) | lo>>s
		} else {
			n = hi >> (s - 64)
		}
		if k := s - 1; k < 64 {
			round = lo>>k&1 == 1
			sticky = lo&(1<<k-1) != 0
		} else {
			round = hi>>(k-64)&1 == 1
			sticky = lo != 0 || hi&(1<<(k-64)-1) != 0
		}
		if round && (sticky || n&1 == 1) {
			n++
		}
	default:
		// mant·10⁴·2^exp < 2^67·2^-68: below one half, rounds to zero.
	}
	dst = strconv.AppendUint(dst, n/10000, 10)
	frac := n % 10000
	return append(dst, '.', byte('0'+frac/1000), byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
}

// csvRow is one parsed data row of a release file.
type csvRow struct {
	bw, lat float64
	curve   int // index of the row's read ratio in first-seen order
}

// curveIndex numbers the distinct read ratios of a file in first-seen
// order and counts their rows. Ratios compare with ==, so -0 and 0 share a
// curve and every NaN starts a new one.
type curveIndex struct {
	ratios  []float64
	counts  []int
	byRatio map[float64]int
}

// find returns the index of ratio's curve, adding the curve if it is new.
func (x *curveIndex) find(ratio float64) int {
	if i, ok := x.byRatio[ratio]; ok {
		return i
	}
	i := len(x.ratios)
	x.ratios = append(x.ratios, ratio)
	x.counts = append(x.counts, 0)
	x.byRatio[ratio] = i
	return i
}

// ReadCSV parses a family written by WriteCSV. It accepts this grammar,
// one line at a time (lines end in "\n" or "\r\n"; surrounding white space
// is ignored):
//
//   - "# label: <text>" sets the label and "# theoretical_bw_gbs: <float>"
//     the theoretical bandwidth; the last occurrence of each wins;
//   - any other line starting with "#" is a comment, and blank lines are
//     skipped;
//   - the first remaining line may be the header: a first field of
//     "read_ratio" and three fields in all;
//   - every other line is a data row of exactly three comma-separated,
//     unquoted fields, read_ratio,bw_gbs,latency_ns, each a float as
//     strconv.ParseFloat reads it. A field containing '"' is an error:
//     release files never quote.
//
// Rows with the same read ratio form one curve, in file order, wherever
// they appear. Curves are sorted by read ratio and the family is
// validated. Errors name the file line at fault.
func ReadCSV(r io.Reader) (*Family, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading curve CSV: %w", err)
	}
	f := &Family{}
	rows := make([]csvRow, 0, bytes.Count(data, []byte{'\n'})+1)
	curves := curveIndex{
		ratios:  make([]float64, 0, 16),
		counts:  make([]int, 0, 16),
		byRatio: make(map[float64]int, 16),
	}
	last := -1
	records := 0
	for lineNo := 1; len(data) > 0; lineNo++ {
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		line = bytes.TrimSpace(line)
		switch {
		case len(line) == 0:
			continue
		case line[0] == '#':
			if v, ok := bytes.CutPrefix(line, []byte("# label:")); ok {
				f.Label = string(bytes.TrimSpace(v))
			} else if v, ok := bytes.CutPrefix(line, []byte("# theoretical_bw_gbs:")); ok {
				bw, err := strconv.ParseFloat(string(bytes.TrimSpace(v)), 64)
				if err != nil {
					return nil, fmt.Errorf("core: CSV line %d: bad theoretical bandwidth header %q", lineNo, line)
				}
				f.TheoreticalBW = bw
			}
			continue
		}
		records++
		if bytes.IndexByte(line, '"') >= 0 {
			return nil, fmt.Errorf("core: CSV line %d: quoted fields are not supported: %q", lineNo, line)
		}
		a, rest, ok1 := bytes.Cut(line, []byte{','})
		b, c, ok2 := bytes.Cut(rest, []byte{','})
		if !ok1 || !ok2 || bytes.IndexByte(c, ',') >= 0 {
			return nil, fmt.Errorf("core: CSV line %d has %d fields, want 3", lineNo, bytes.Count(line, []byte{','})+1)
		}
		if records == 1 && string(a) == "read_ratio" {
			continue
		}
		ratio, err1 := strconv.ParseFloat(string(a), 64)
		bw, err2 := strconv.ParseFloat(string(b), 64)
		lat, err3 := strconv.ParseFloat(string(c), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("core: CSV line %d unparsable: %q", lineNo, line)
		}
		if last < 0 || curves.ratios[last] != ratio {
			last = curves.find(ratio)
		}
		curves.counts[last]++
		rows = append(rows, csvRow{bw, lat, last})
	}

	// One backing array holds every point; each curve owns a capped
	// window of it, so appending to one curve never overwrites the next.
	if len(curves.ratios) > 0 {
		f.Curves = make([]Curve, len(curves.ratios))
		pts := make([]Point, len(rows))
		off := 0
		for i, r := range curves.ratios {
			n := curves.counts[i]
			f.Curves[i] = Curve{ReadRatio: r, Points: pts[off : off : off+n]}
			off += n
		}
		for _, row := range rows {
			c := &f.Curves[row.curve]
			c.Points = append(c.Points, Point{BW: row.bw, Latency: row.lat})
		}
	}
	f.Sort()
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}
