// Package workload synthesizes the paper's datasets (Table II) and
// workload components: file populations with matching count/size/total
// characteristics, the two network models with their accelerator step-time
// costs, and the tf.data capture functions (I/O + preprocessing) of each
// use-case. File contents are never inspected by any experiment — only
// sizes and access patterns matter — so populations are generated
// size-accurately from deterministic seeds, and the capture functions'
// whole-file reads ride tfio's zero-materialization read path (nil-buffer
// preads; tf.Env.VerifyContent re-enables byte generation + checksums).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
	"repro/internal/vfs"
)

// DatasetSpec describes a generated file population.
type DatasetSpec struct {
	Name       string
	Dir        string
	NumFiles   int
	TotalBytes int64
	Seed       int64
}

// Dataset is a realized population.
type Dataset struct {
	Spec  DatasetSpec
	Paths []string
	Sizes []int64
}

// Total returns the realized total size.
func (d *Dataset) Total() int64 {
	var t int64
	for _, s := range d.Sizes {
		t += s
	}
	return t
}

// Median returns the realized median file size (interpolated for
// even-length populations, like every other median in the repo).
func (d *Dataset) Median() int64 {
	return stats.MedianInt64(d.Sizes)
}

// scaleTo rescales sizes so they sum exactly to total (preserving shape).
func scaleTo(sizes []int64, total int64) {
	var cur int64
	for _, s := range sizes {
		cur += s
	}
	if cur == 0 {
		return
	}
	f := float64(total) / float64(cur)
	var acc int64
	for i := range sizes {
		sizes[i] = int64(float64(sizes[i]) * f)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		acc += sizes[i]
	}
	// Push the rounding remainder into the largest file.
	var maxI int
	for i := range sizes {
		if sizes[i] > sizes[maxI] {
			maxI = i
		}
	}
	sizes[maxI] += total - acc
}

func lognormal(rng *rand.Rand, median float64, sigma float64) int64 {
	v := median * math.Exp(rng.NormFloat64()*sigma)
	if v < 1 {
		v = 1
	}
	return int64(v)
}

// Generate materializes the population in fs under spec.Dir. Files are
// created in name order, so they are laid out contiguously on the device
// in that order (a dataset copied onto a fresh file system).
func Generate(fs *vfs.FS, spec DatasetSpec, sizes []int64) (*Dataset, error) {
	d := &Dataset{Spec: spec, Sizes: sizes}
	d.Paths = make([]string, len(sizes))
	for i, s := range sizes {
		p := fmt.Sprintf("%s/%s-%06d", spec.Dir, spec.Name, i)
		if _, err := fs.CreateFile(p, s); err != nil {
			return nil, err
		}
		d.Paths[i] = p
	}
	return d, nil
}

// ImageNetSizes draws the ImageNet-like population: many small files with
// a tight lognormal spread around an ~88KB median, 11.6GB over 128K files.
func ImageNetSizes(spec DatasetSpec) []int64 {
	rng := rand.New(rand.NewSource(spec.Seed))
	sizes := make([]int64, spec.NumFiles)
	for i := range sizes {
		sizes[i] = lognormal(rng, 88*1024, 0.35)
	}
	scaleTo(sizes, spec.TotalBytes)
	return sizes
}

// MalwareSizes draws the Kaggle BIG2015-like population. The decisive
// shape (paper §V-B): ~40% of the files are below 2MB yet hold only ~8% of
// the bytes, while the median stays ~4MB; the sampler mixes three regimes
// to reproduce exactly that.
func MalwareSizes(spec DatasetSpec) []int64 {
	rng := rand.New(rand.NewSource(spec.Seed))
	n := spec.NumFiles
	sizes := make([]int64, n)
	nSmall := int(float64(n) * 0.40) // < 2MB, mean ~0.84MB
	nMid := int(float64(n) * 0.10)   // 2-4MB
	for i := 0; i < n; i++ {
		switch {
		case i < nSmall:
			v := lognormal(rng, 600*1024, 0.75)
			if v >= 2<<20 {
				v = 2<<20 - 1 - rng.Int63n(1<<18)
			}
			sizes[i] = v
		case i < nSmall+nMid:
			sizes[i] = 2<<20 + rng.Int63n(2<<20)
		default:
			sizes[i] = lognormal(rng, 6<<20, 0.55)
			if sizes[i] < 4<<20 {
				sizes[i] = 4<<20 + rng.Int63n(1<<20)
			}
		}
	}
	// Scale only the large regime so the small-file regime keeps its
	// absolute shape (the staging experiment depends on it).
	var smallTotal int64
	for i := 0; i < nSmall+nMid; i++ {
		smallTotal += sizes[i]
	}
	large := sizes[nSmall+nMid:]
	scaleTo(large, spec.TotalBytes-smallTotal)
	// Shuffle so regimes are interleaved on disk as in a real corpus.
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// ImageNetSpec is the paper's ImageNet configuration (Table II): 128,000
// files, ~11.6GB, median ~88KB.
func ImageNetSpec(dir string, scale float64) DatasetSpec {
	return DatasetSpec{
		Name:       "imagenet",
		Dir:        dir,
		NumFiles:   max(1, int(128000*scale)),
		TotalBytes: int64(11.6 * scale * float64(1<<30)),
		Seed:       20200812,
	}
}

// MalwareSpec is the Kaggle BIG2015 configuration (Table II): 10,868
// files, ~48GB, median ~4MB.
func MalwareSpec(dir string, scale float64) DatasetSpec {
	return DatasetSpec{
		Name:       "malware",
		Dir:        dir,
		NumFiles:   max(1, int(10868*scale)),
		TotalBytes: int64(48 * scale * float64(1<<30)),
		Seed:       20150409,
	}
}

// StreamImageNetSpec is the STREAM validation subset: 12,800 files, ~1GB,
// median ~76KB.
func StreamImageNetSpec(dir string, scale float64) DatasetSpec {
	return DatasetSpec{
		Name:       "stream-imagenet",
		Dir:        dir,
		NumFiles:   max(1, int(12800*scale)),
		TotalBytes: int64(1.0 * scale * float64(1<<30)),
		Seed:       1128,
	}
}

// StreamMalwareSpec is the STREAM malware subset: 6,400 files, ~35GB.
func StreamMalwareSpec(dir string, scale float64) DatasetSpec {
	return DatasetSpec{
		Name:       "stream-malware",
		Dir:        dir,
		NumFiles:   max(1, int(6400*scale)),
		TotalBytes: int64(35 * scale * float64(1<<30)),
		Seed:       6450,
	}
}

// BuildImageNet generates the ImageNet-like dataset.
func BuildImageNet(fs *vfs.FS, spec DatasetSpec) (*Dataset, error) {
	return Generate(fs, spec, ImageNetSizes(spec))
}

// BuildMalware generates the malware-like dataset.
func BuildMalware(fs *vfs.FS, spec DatasetSpec) (*Dataset, error) {
	return Generate(fs, spec, MalwareSizes(spec))
}

// BuildStreamImageNet generates the STREAM ImageNet subset (same size
// shape as ImageNet, smaller median).
func BuildStreamImageNet(fs *vfs.FS, spec DatasetSpec) (*Dataset, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	sizes := make([]int64, spec.NumFiles)
	for i := range sizes {
		sizes[i] = lognormal(rng, 76*1024, 0.35)
	}
	scaleTo(sizes, spec.TotalBytes)
	return Generate(fs, spec, sizes)
}

// BuildStreamMalware generates the STREAM malware subset.
func BuildStreamMalware(fs *vfs.FS, spec DatasetSpec) (*Dataset, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	sizes := make([]int64, spec.NumFiles)
	for i := range sizes {
		sizes[i] = lognormal(rng, 5<<20, 0.5)
	}
	scaleTo(sizes, spec.TotalBytes)
	return Generate(fs, spec, sizes)
}
