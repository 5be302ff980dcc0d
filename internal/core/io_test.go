package core

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// readCSVOracle is the encoding/csv-based parser ReadCSV replaced, kept as
// the reference the single-pass parser is checked against.
func readCSVOracle(r io.Reader) (*Family, error) {
	f := &Family{}
	br := bufio.NewReader(r)
	var dataLines strings.Builder
	for {
		line, err := br.ReadString('\n')
		done := err == io.EOF
		if err != nil && !done {
			return nil, fmt.Errorf("core: reading curve CSV: %w", err)
		}
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "# label:"):
			f.Label = strings.TrimSpace(strings.TrimPrefix(trimmed, "# label:"))
		case strings.HasPrefix(trimmed, "# theoretical_bw_gbs:"):
			v, perr := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(trimmed, "# theoretical_bw_gbs:")), 64)
			if perr != nil {
				return nil, fmt.Errorf("core: bad theoretical bandwidth header %q", trimmed)
			}
			f.TheoreticalBW = v
		case trimmed == "" || strings.HasPrefix(trimmed, "#"):
			// skip
		default:
			dataLines.WriteString(trimmed)
			dataLines.WriteByte('\n')
		}
		if done {
			break
		}
	}
	cr := csv.NewReader(strings.NewReader(dataLines.String()))
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("core: parsing curve CSV: %w", err)
	}
	byRatio := map[float64]*Curve{}
	var order []float64
	for i, rec := range records {
		if i == 0 && rec[0] == "read_ratio" {
			continue
		}
		if len(rec) != 3 {
			return nil, fmt.Errorf("core: CSV row %d has %d fields, want 3", i, len(rec))
		}
		ratio, err1 := strconv.ParseFloat(rec[0], 64)
		bwv, err2 := strconv.ParseFloat(rec[1], 64)
		lat, err3 := strconv.ParseFloat(rec[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("core: CSV row %d unparsable: %v", i, rec)
		}
		c, ok := byRatio[ratio]
		if !ok {
			c = &Curve{ReadRatio: ratio}
			byRatio[ratio] = c
			order = append(order, ratio)
		}
		c.Points = append(c.Points, Point{BW: bwv, Latency: lat})
	}
	for _, ratio := range order {
		f.Curves = append(f.Curves, *byRatio[ratio])
	}
	f.Sort()
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// releaseFamily is the shape of a full-density release family: 14 curves
// of 21 points.
func releaseFamily() *Family {
	ratios := make([]float64, 14)
	for i := range ratios {
		ratios[i] = 0.35 + 0.05*float64(i)
	}
	return NewSynthetic(SyntheticSpec{Label: "Intel Skylake", PeakGBs: 128, Ratios: ratios, PointsPerCurve: 21})
}

// raceEnabled is set under the race detector, which slows strconv's exact
// formatting tenfold.
var raceEnabled bool

func TestAppendFixed4MatchesSprintf(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		got := string(appendFixed4(nil, v))
		if want := fmt.Sprintf("%.4f", v); got != want {
			t.Fatalf("appendFixed4(%v = %#x) = %q, want %q", v, math.Float64bits(v), got, want)
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074, 1e-300,
		4.9999e-5, 5e-5, 1e-4, 0.5, 1, 89.1, 128, -1.5, -0.00004,
		1e15, math.Nextafter(1e15, 0), 1.5e15, 1e300, math.MaxFloat64,
		float64(1 << 53), math.MaxUint64,
	} {
		check(v)
	}
	// Exact binary halves: v·10⁴ has a fractional part of exactly one half
	// only for odd multiples of 1/32, where half-to-even decides. Check
	// them and their neighbours, across magnitudes.
	for _, base := range []float64{0, 1, 7, 1023, 1 << 20, 123456789, 1 << 40, 1e14, 999999999999999} {
		for j := 0; j < 64; j++ {
			v := base + float64(2*j+1)/32
			check(v)
			check(math.Nextafter(v, 0))
			check(math.Nextafter(v, math.Inf(1)))
		}
	}
	rng := rand.New(rand.NewSource(1))
	n := 2_000_000
	if testing.Short() || raceEnabled {
		n = 200_000
	}
	for i := 0; i < n; i++ {
		// Positive values across the integer path's range, 2^-20 to 2^50.
		exp := uint64(1023-20+rng.Intn(71)) << 52
		check(math.Float64frombits(exp | rng.Uint64()&(1<<52-1)))
		if i%8 == 0 {
			// Any bit pattern: mostly huge, tiny or negative values.
			check(math.Float64frombits(rng.Uint64()))
		}
	}
}

func TestWriteCSVSingleAllocation(t *testing.T) {
	f := releaseFamily()
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("WriteCSV of a 14x21 family allocated %v times, want at most 1", allocs)
	}
}

func TestWriteCSVMatchesSprintf(t *testing.T) {
	f := releaseFamily()
	f.Curves[0].Points[0] = Point{BW: 0.03125, Latency: 1e16}
	f.Curves[1].Points[0].BW = math.Copysign(0, -1)
	var want strings.Builder
	fmt.Fprintf(&want, "# label: %s\n# theoretical_bw_gbs: %.4f\nread_ratio,bw_gbs,latency_ns\n", f.Label, f.TheoreticalBW)
	for _, c := range f.Curves {
		for _, p := range c.Points {
			fmt.Fprintf(&want, "%.4f,%.4f,%.4f\n", c.ReadRatio, p.BW, p.Latency)
		}
	}
	var got bytes.Buffer
	if err := f.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteCSV differs from the %%.4f rendering:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

func TestWriteCSVRejectsNewlineInLabel(t *testing.T) {
	f := releaseFamily()
	f.Label = "Intel\nSkylake"
	var buf bytes.Buffer
	err := f.WriteCSV(&buf)
	if err == nil || !strings.Contains(err.Error(), "newline") {
		t.Fatalf("WriteCSV with a newline in the label: err = %v, want a newline error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteCSV wrote %d bytes before failing", buf.Len())
	}
}

func TestReadCSVRejectsBrokenTheoreticalBW(t *testing.T) {
	body := "read_ratio,bw_gbs,latency_ns\n1.0,1,90\n1.0,50,120\n"
	for _, v := range []string{"NaN", "Inf", "+Inf", "-Inf", "-1", "-0.0001"} {
		in := "# label: x\n# theoretical_bw_gbs: " + v + "\n" + body
		if _, err := ReadCSV(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "theoretical bandwidth") {
			t.Errorf("theoretical bandwidth %s: err = %v, want a theoretical bandwidth error", v, err)
		}
	}
	for _, v := range []string{"0", "-0", "128.0000"} {
		in := "# theoretical_bw_gbs: " + v + "\n" + body
		if _, err := ReadCSV(strings.NewReader(in)); err != nil {
			t.Errorf("theoretical bandwidth %s rejected: %v", v, err)
		}
	}
}

func TestReadCSVLocatesErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"read_ratio,bw_gbs,latency_ns\n1,1,90\n\n1,2\n", "line 4 has 2 fields"},
		{"# c\n1,1,90\n1,x,95\n", "line 3 unparsable"},
		{"1,1,90\n\"1\",2,95\n", "line 2: quoted fields"},
		{"# theoretical_bw_gbs: fast\n1,1,90\n", "line 1: bad theoretical bandwidth"},
		{"read_ratio,bw_gbs,latency_ns\nread_ratio,bw_gbs,latency_ns\n", "line 2 unparsable"},
	} {
		_, err := ReadCSV(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadCSV(%q): err = %v, want %q", tc.in, err, tc.want)
		}
	}
}

func TestReadCSVKeepsCurvesApart(t *testing.T) {
	// Rows of one ratio need not be adjacent, and appending to one curve
	// must not overwrite its neighbour in the shared point array.
	in := "0.5,1,90\n1.0,1,80\n0.5,2,95\n1.0,2,85\n"
	f, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Curve{
		{ReadRatio: 0.5, Points: []Point{{1, 90}, {2, 95}}},
		{ReadRatio: 1.0, Points: []Point{{1, 80}, {2, 85}}},
	}
	if !reflect.DeepEqual(f.Curves, want) {
		t.Fatalf("curves = %+v, want %+v", f.Curves, want)
	}
	f.Curves[0].Points = append(f.Curves[0].Points, Point{3, 99})
	if !reflect.DeepEqual(f.Curves[1], want[1]) {
		t.Fatalf("appending to curve 0 changed curve 1: %+v", f.Curves[1])
	}
}

// checkReadCSV holds ReadCSV to the properties FuzzReadCSV explores.
func checkReadCSV(t *testing.T, in []byte) {
	got, err := ReadCSV(bytes.NewReader(in))
	if !bytes.ContainsRune(in, '"') {
		want, werr := oracleReadCSV(in)
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadCSV err = %v, encoding/csv parser err = %v", err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadCSV = %+v, encoding/csv parser = %+v", got, want)
		}
	}
	if err != nil {
		return
	}
	var first bytes.Buffer
	if err := got.WriteCSV(&first); err != nil {
		t.Fatalf("re-serializing an accepted family: %v", err)
	}
	again, err := ReadCSV(bytes.NewReader(first.Bytes()))
	if err != nil {
		// Four decimals cannot carry a latency below 0.00005 ns, which
		// reads back as the invalid latency 0; no other loss is allowed.
		if underflowsLatency(got) {
			return
		}
		t.Fatalf("re-serialized family does not parse: %v\n%s", err, first.Bytes())
	}
	if again.Label != got.Label || again.TheoreticalBW != roundTrip4(got.TheoreticalBW) {
		t.Fatalf("header changed over a round trip: %q %v, want %q %v", again.Label, again.TheoreticalBW, got.Label, got.TheoreticalBW)
	}
	// Rounding may merge curves whose ratios agree to four decimals, but
	// the rows, in order, are those of the family rounded.
	if a, b := rows4(got, true), rows4(again, false); !reflect.DeepEqual(a, b) {
		t.Fatalf("rows changed over a round trip:\n%v\nwant\n%v", b, a)
	}
	var second bytes.Buffer
	if err := again.WriteCSV(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("serialization is not a fixed point:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
	}
	if back, err := ReadCSV(bytes.NewReader(second.Bytes())); err != nil || !reflect.DeepEqual(back, again) {
		t.Fatalf("second round trip: %+v, %v; want %+v", back, err, again)
	}
}

// oracleReadCSV runs readCSVOracle, turning its panic into an error: the
// map it groups rows by cannot find a NaN read ratio again, so it crashes
// on such input where ReadCSV rejects it.
func oracleReadCSV(in []byte) (f *Family, err error) {
	defer func() {
		if p := recover(); p != nil {
			f, err = nil, fmt.Errorf("encoding/csv parser panicked: %v", p)
		}
	}()
	return readCSVOracle(bytes.NewReader(in))
}

func roundTrip4(v float64) float64 {
	r, err := strconv.ParseFloat(string(appendFixed4(nil, v)), 64)
	if err != nil {
		panic(err)
	}
	return r
}

func underflowsLatency(f *Family) bool {
	for _, c := range f.Curves {
		for _, p := range c.Points {
			if roundTrip4(p.Latency) == 0 {
				return true
			}
		}
	}
	return false
}

// rows4 flattens a family into its rows, rounded to four decimals when
// round is set.
func rows4(f *Family, round bool) [][3]float64 {
	var out [][3]float64
	for _, c := range f.Curves {
		for _, p := range c.Points {
			row := [3]float64{c.ReadRatio, p.BW, p.Latency}
			if round {
				for i := range row {
					row[i] = roundTrip4(row[i])
				}
			}
			out = append(out, row)
		}
	}
	return out
}

func TestReadCSVSeeds(t *testing.T) {
	var release bytes.Buffer
	if err := releaseFamily().WriteCSV(&release); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{
		release.String(),
		strings.ReplaceAll(release.String(), "\n", "\r\n"),
		"# label: a\r b\n# note\n\n  \t\n0.5,1,90\n 1.0,1,80 \n0.5,2,95\n1.0,2,85",
		"read_ratio,x\n",
		"read_ratio,bw_gbs,latency_ns\n-0,1,90\n0,2,95\n",
		"# theoretical_bw_gbs: 0x1p4\n1,1_0,90\n1,2,95\n",
		"1,1,90\n1,2,95,\n",
		"1,1,1e-5\n1,2,95\n",
		"0.50001,1,90\n0.50002,2,95\n0.5,3,99\n",
		"1,+Inf,90\n1,2,Infinity\n",
		"NaN,1,90\nNaN,2,95\n",
		manyCurves(40),
	} {
		checkReadCSV(t, []byte(in))
	}
}

// manyCurves interleaves two rows for each of n read ratios, so every
// curve's rows are split across the file.
func manyCurves(n int) string {
	var b strings.Builder
	for pass := 1; pass <= 2; pass++ {
		for i := n; i > 0; i-- {
			fmt.Fprintf(&b, "%g,%d,%d\n", float64(i)/float64(n), pass, 90+pass)
		}
	}
	return b.String()
}

// FuzzReadCSV checks that ReadCSV never panics, agrees with the
// encoding/csv parser it replaced on every input without quotes, and that
// an accepted family reaches a serialization fixed point after one write.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(checkReadCSV)
}

func BenchmarkWriteCSV(b *testing.B) {
	f := releaseFamily()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	var buf bytes.Buffer
	if err := releaseFamily().WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
