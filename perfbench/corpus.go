package main

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ferret"
	"ferret/internal/synth"
)

// corpusObjects synthesizes the workload's corpus. Its cost is the
// generator's own and is not part of setup_s.
func corpusObjects(c Corpus, n int) ([]ferret.Object, error) {
	switch c.Kind {
	case "image":
		return synth.MixedImageObjects(n, c.Seed), nil
	case "shape":
		return synth.MixedShapeObjects(n, c.Seed), nil
	}
	return nil, fmt.Errorf("unknown corpus kind %q", c.Kind)
}

// cachedCorpus is corpusObjects kept as a gob file in dir, keyed by the
// generator binary's hash, so runs after the first skip the synthesis.
func cachedCorpus(c Corpus, n int, dir string) ([]ferret.Object, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sum, err := fileHash(self)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d-%s.gob", c.Kind, n, c.Seed, sum))
	if f, err := os.Open(path); err == nil {
		var objs []ferret.Object
		err := gob.NewDecoder(bufio.NewReader(f)).Decode(&objs)
		f.Close()
		if err == nil && len(objs) == n {
			return objs, nil
		}
	}
	objs, err := corpusObjects(c, n)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := gob.NewEncoder(w).Encode(objs); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	// Flushed now, the cache's pages are not written back during the
	// timed set-up that follows.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return objs, os.Rename(tmp, path)
}

// corpusConfig is the facade configuration ferretd itself uses for the
// data type, with default durability and the sketch bounds matched to the
// generator's value range (ferretd reopens the persisted sketch builder).
func corpusConfig(c Corpus, dir string) (ferret.Config, error) {
	switch c.Kind {
	case "image":
		// Mixed image features lie in [0, 1], inside the image plug-in's
		// feature bounds, so the stock configuration applies unchanged.
		return ferret.ImageConfig(dir), nil
	case "shape":
		cfg := ferret.ShapeConfig(dir)
		lo := make([]float32, len(cfg.Sketch.Min))
		hi := make([]float32, len(cfg.Sketch.Max))
		for i := range hi {
			hi[i] = 2 // Mixed 3D shape descriptors lie in [0, 2]
		}
		cfg.Sketch.Min, cfg.Sketch.Max = lo, hi
		return cfg, nil
	}
	return ferret.Config{}, fmt.Errorf("unknown corpus kind %q", c.Kind)
}

// ingestCorpus builds a fresh database in dir through the facade and
// closes it.
func ingestCorpus(c Corpus, dir string, objs []ferret.Object) error {
	cfg, err := corpusConfig(c, dir)
	if err != nil {
		return err
	}
	sys, err := ferret.Open(cfg, nil)
	if err != nil {
		return fmt.Errorf("opening corpus database: %w", err)
	}
	for i := range objs {
		if _, err := sys.Ingest(objs[i], nil); err != nil {
			sys.Close()
			return fmt.Errorf("ingesting %s: %w", objs[i].Key, err)
		}
	}
	return sys.Close()
}

// writeFiles generates n PNG images for ADDFILE under dir and returns
// their absolute paths, which become the added objects' keys. Only image
// workloads write.
func writeFiles(kind, dir string, n int, seed int64) ([]string, error) {
	if kind != "image" {
		return nil, fmt.Errorf("no ADDFILE files for corpus kind %q", kind)
	}
	if _, err := synth.WriteVARYFiles(dir, synth.VARYOptions{Sets: 1, SetSize: 1, Distractors: n - 1, ConfusersPerSet: -1, Seed: seed}); err != nil {
		return nil, fmt.Errorf("writing image files: %w", err)
	}
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			paths = append(paths, p)
		}
		return err
	})
	sort.Strings(paths)
	if len(paths) > n {
		paths = paths[:n]
	}
	return paths, err
}

// setup times one set-up: facade ingest of the corpus into a fresh
// directory, then ferretd start-up until its first answered query. The
// daemon is left running as b.d.
func (b *bench) setup(rep int) (time.Duration, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("db%d", rep))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := ingestCorpus(b.w.Corpus, dir, b.objs); err != nil {
		return 0, err
	}
	d, err := startDaemon(b.opt.Ferretd, dir, filepath.Join(b.work, fmt.Sprintf("ferretd%d.log", rep)), b.w.FerretdFlags)
	if err != nil {
		return 0, err
	}
	b.setDaemon(d)
	end, err := d.waitFirstAnswer(b.keys[0], b.spec.K, 60*time.Second)
	if err != nil {
		return 0, err
	}
	return end.Sub(start), nil
}
