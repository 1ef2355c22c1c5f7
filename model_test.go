package bootes

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bootes/internal/core"
	"bootes/internal/dtree"
)

// validModelJSON is a hand-built two-leaf gate: it splits on feature 3 and
// predicts "no reorder" or k=4.
const validModelJSON = `{"root":{"f":3,"t":0.5,"l":{"f":-1,"c":0},"r":{"f":-1,"c":2}},"numClass":6}`

func TestLoadModelRejectsMalformedTrees(t *testing.T) {
	for _, tc := range []struct {
		name, data string
	}{
		// Used to make every plan fail with a nil pointer dereference.
		{"split-missing-children", `{"root":{"f":0,"t":-1}}`},
		// Used to make every plan fail with "label 99 out of range".
		{"leaf-class-99-no-numclass", `{"root":{"f":-1,"c":99}}`},
		{"leaf-class-99", `{"root":{"f":-1,"c":99},"numClass":6}`},
		{"split-missing-right", `{"root":{"f":0,"l":{"f":-1,"c":0}},"numClass":6}`},
		{"negative-feature", `{"root":{"f":-2,"l":{"f":-1,"c":0},"r":{"f":-1,"c":0}},"numClass":6}`},
		{"feature-past-vector", `{"root":{"f":12,"l":{"f":-1,"c":0},"r":{"f":-1,"c":0}},"numClass":6}`},
		{"negative-leaf-class", `{"root":{"f":-1,"c":-1},"numClass":6}`},
		{"class-without-k", `{"root":{"f":-1,"c":6},"numClass":7}`},
		{"histogram-length", `{"root":{"f":-1,"c":1,"n":[1,2]},"numClass":6}`},
		{"deep-bad-leaf", `{"root":{"f":0,"l":{"f":-1,"c":0},"r":{"f":1,"l":{"f":-1,"c":1},"r":{"f":-1,"c":40}}},"numClass":6}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadModel([]byte(tc.data))
			if !errors.Is(err, dtree.ErrMalformed) {
				t.Errorf("LoadModel(%s) = %v, want an ErrMalformed error", tc.data, err)
			}
		})
	}
	if _, err := LoadModel([]byte(`{"numClass":6}`)); !errors.Is(err, dtree.ErrNotTrained) {
		t.Errorf("rootless model: err = %v, want ErrNotTrained", err)
	}
	m, err := LoadModel([]byte(validModelJSON))
	if err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	if _, err := Plan(demoMatrix(t), &Options{Model: m, Seed: 1}); err != nil {
		t.Fatalf("plan with the valid hand-built model: %v", err)
	}
}

// FuzzDecodeModel feeds arbitrary bytes to LoadModel. Whatever it accepts
// must evaluate on any feature vector to a label that names a cluster count,
// and must survive an encode/load round trip.
func FuzzDecodeModel(f *testing.F) {
	for _, s := range []string{
		validModelJSON,
		`{"root":{"f":0,"t":-1}}`,
		`{"root":{"f":-1,"c":99}}`,
		`{"root":{"f":-1,"c":0},"numClass":1}`,
		`{"root":{"f":11,"t":1e308,"l":{"f":-1,"c":5,"n":[0,0,0,0,0,1]},"r":{"f":-1,"c":1}},"numClass":6,"depth":1}`,
		`{}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(data)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		x := make([]float64, len(core.FeatureNames))
		for trial := 0; trial < 16; trial++ {
			for i := range x {
				switch trial {
				case 0:
					x[i] = math.Inf(-1)
				case 1:
					x[i] = math.Inf(1)
				case 2:
					x[i] = math.NaN()
				default:
					x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				}
			}
			label, err := m.tree.Predict(x)
			if err != nil {
				t.Fatalf("accepted model fails to predict: %v", err)
			}
			if _, err := core.KForLabel(label); err != nil {
				t.Fatalf("accepted model predicts unusable label: %v", err)
			}
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted model does not encode: %v", err)
		}
		if _, err := LoadModel(enc); err != nil {
			t.Fatalf("accepted model rejected after a round trip: %v", err)
		}
	})
}
