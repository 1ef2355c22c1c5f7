package dtree

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// noisyData is axisData plus label noise, where ensembles have an edge.
func noisyData(rng *rand.Rand, n int, noise float64) []Sample {
	samples := axisData(rng, n)
	for i := range samples {
		if rng.Float64() < noise {
			samples[i].Label = rng.Intn(3)
		}
	}
	return samples
}

func TestForestAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := noisyData(rng, 600, 0.15)
	test := axisData(rng, 300) // clean test labels
	forest, err := TrainForest(train, 3, ForestOptions{Trees: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := forest.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("forest accuracy %v, want ≥ 0.85", acc)
	}
}

func TestForestAtLeastAsGoodAsTreeOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := noisyData(rng, 500, 0.25)
	test := axisData(rng, 400)
	tree, err := Train(train, 3, Options{MaxDepth: 10, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := TrainForest(train, 3, ForestOptions{Trees: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	treeAcc, _ := tree.Accuracy(test)
	forestAcc, _ := forest.Accuracy(test)
	if forestAcc+0.05 < treeAcc {
		t.Errorf("forest %.3f much worse than single tree %.3f", forestAcc, treeAcc)
	}
	// The paper's trade-off: the ensemble costs much more storage.
	if forest.ModeledBytes() < 3*tree.ModeledBytes() {
		t.Errorf("forest %dB should dwarf tree %dB", forest.ModeledBytes(), tree.ModeledBytes())
	}
}

func TestForestErrors(t *testing.T) {
	if _, err := TrainForest(nil, 2, ForestOptions{}); err == nil {
		t.Error("empty training set accepted")
	}
	var f Forest
	if _, err := f.Predict([]float64{1}); err == nil {
		t.Error("untrained forest predicted")
	}
	if _, err := f.Accuracy(nil); err == nil {
		t.Error("empty accuracy accepted")
	}
}

func TestForestEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := axisData(rng, 200)
	forest, err := TrainForest(train, 3, ForestOptions{Trees: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	data, err := forest.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// No production path reads a forest back, so the round trip goes
	// through encoding/json directly: Encode must lose nothing Predict uses.
	var back Forest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		a, _ := forest.Predict(x)
		b, _ := back.Predict(x)
		if a != b {
			t.Fatal("decoded forest disagrees")
		}
	}
}

func TestForestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := axisData(rng, 150)
	a, err := TrainForest(train, 3, ForestOptions{Trees: 7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainForest(train, 3, ForestOptions{Trees: 7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := []float64{float64(i) / 50, float64(50-i) / 50}
		pa, _ := a.Predict(x)
		pb, _ := b.Predict(x)
		if pa != pb {
			t.Fatal("same seed, different forests")
		}
	}
}
