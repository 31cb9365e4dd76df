package trace

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFromCSV(t *testing.T) {
	input := `# demand trace
0,100
60,200
120,50
`
	tr, err := FromCSV(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 3 {
		t.Fatalf("points = %d", len(tr.Points))
	}
	// Normalized to the max (200).
	if tr.Points[1].Rate != 1.0 {
		t.Fatalf("peak rate = %v, want 1.0", tr.Points[1].Rate)
	}
	if tr.Points[0].Rate != 0.5 || tr.Points[2].Rate != 0.25 {
		t.Fatalf("normalized rates = %v, %v", tr.Points[0].Rate, tr.Points[2].Rate)
	}
	if tr.Points[1].At != time.Minute {
		t.Fatalf("offset = %v", tr.Points[1].At)
	}
	if tr.Duration() != 2*time.Minute {
		t.Fatalf("duration = %v", tr.Duration())
	}
}

func TestFromCSVHeaderRow(t *testing.T) {
	input := "seconds,rate\n0,10\n30,20\n"
	tr, err := FromCSV(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 2 {
		t.Fatalf("points = %d", len(tr.Points))
	}
}

func TestFromCSVFractionalSeconds(t *testing.T) {
	input := "0,1\n0.5,2\n1.5,1\n"
	tr, err := FromCSV(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Points[1].At != 500*time.Millisecond {
		t.Fatalf("offset = %v", tr.Points[1].At)
	}
}

func TestFromCSVErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{name: "missing comma", input: "0 10\n1 20\n"},
		{name: "non-numeric mid-file", input: "0,10\nxx,yy\n"},
		{name: "negative rate", input: "0,10\n1,-5\n"},
		{name: "non-increasing offsets", input: "0,10\n0,20\n"},
		{name: "single point", input: "0,10\n"},
		{name: "empty", input: ""},
		{name: "all zero rates", input: "0,0\n1,0\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromCSV(strings.NewReader(tt.input)); !errors.Is(err, ErrBadCSV) {
				t.Fatalf("err = %v, want ErrBadCSV", err)
			}
		})
	}
}

func TestFromCSVRateAtInterpolates(t *testing.T) {
	tr, err := FromCSV(strings.NewReader("0,0.0001\n10,100\n"))
	if err != nil {
		t.Fatal(err)
	}
	mid := tr.RateAt(5 * time.Second)
	if mid < 0.4 || mid > 0.6 {
		t.Fatalf("midpoint rate = %v, want ≈0.5", mid)
	}
}
