// Command tigris-synth generates a synthetic LiDAR sequence (the KITTI
// substitute, README "Substitutions" 1) and writes each frame as a
// TIGRIS-CLOUD file plus a poses.txt with the ground-truth trajectory in
// KITTI's 3×4 row-major format. The output feeds tigris-register or any
// external tool.
//
// Usage:
//
//	tigris-synth [-frames N] [-seed S] [-beams B] [-azimuth A] [-out DIR]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tigris/internal/cloud"
	"tigris/internal/synth"
)

func main() {
	frames := flag.Int("frames", 5, "number of frames")
	seed := flag.Int64("seed", 1, "scene + noise seed")
	beams := flag.Int("beams", 32, "vertical beams (64 = HDL-64E class)")
	azimuth := flag.Int("azimuth", 600, "azimuth steps per revolution")
	outDir := flag.String("out", "synth-out", "output directory")
	flag.Parse()

	cfg := synth.SequenceConfig{
		Scene:     synth.SceneConfig{Seed: *seed},
		Lidar:     synth.LidarConfig{Beams: *beams, AzimuthSteps: *azimuth, Seed: *seed},
		NumFrames: *frames,
	}
	seq := synth.GenerateSequence(cfg)

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	poses, err := os.Create(filepath.Join(*outDir, "poses.txt"))
	if err != nil {
		log.Fatal(err)
	}
	defer poses.Close()

	for i, frame := range seq.Frames {
		name := filepath.Join(*outDir, fmt.Sprintf("%06d.cloud", i))
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := cloud.Write(f, frame); err != nil {
			log.Fatal(err)
		}
		f.Close()

		// KITTI pose format: the first 3 rows of the 4x4 vehicle->world
		// matrix, row-major on one line.
		m := seq.Poses[i].Mat4()
		for r := 0; r < 3; r++ {
			for c := 0; c < 4; c++ {
				if r+c > 0 {
					fmt.Fprint(poses, " ")
				}
				fmt.Fprintf(poses, "%.9f", m.At(r, c))
			}
		}
		fmt.Fprintln(poses)
		fmt.Printf("wrote %s (%d points)\n", name, frame.Len())
	}
	fmt.Printf("wrote %s\n", filepath.Join(*outDir, "poses.txt"))
}
