package webservice

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestRecoveryArtifactsPinned pins the on-disk recovery format: the journal,
// the planned DAG, the VDL and the wave manifest a journaled run leaves
// behind must hash to fixed digests in both execution modes and at any
// worker width, so a journal written by an older build keeps resuming. The
// manifest embeds the archive's acref URLs, whose host:port differs per test
// server, so that base URL is replaced by a fixed token before hashing.
func TestRecoveryArtifactsPinned(t *testing.T) {
	const absent = "absent"
	want := map[string]map[string]string{
		"classic": {
			"COMA.journal": "b5efe29a38b731a4c519a4371aa1c314a7da50c8caea61dabd1b2fe4142df8eb",
			"COMA.dag":     "556d5258ce091e66f434fd5b2a7a5a00e45547c22c7a33da889376071463e580",
			"COMA.vdl":     "4a71fdc816e8c559293a7e0a669a998cb4f30aa36b247ebbec270ce1cf24977f",
			"COMA.waves":   absent,
		},
		"waves": {
			"COMA.journal": "f23181e5786658b3ba483acfeedcfd249924fa2d447abc3a806a9cf1eaa10c3d",
			"COMA.dag":     absent,
			"COMA.vdl":     "4a71fdc816e8c559293a7e0a669a998cb4f30aa36b247ebbec270ce1cf24977f",
			"COMA.waves":   "c330ad1ae667e14b8bc37c824b4187d0c826228b81948d29649e770e7d6cca21",
		},
	}
	for _, mode := range []struct {
		name     string
		waveSize int
	}{{"classic", 0}, {"waves", 2}} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				h := newHarness(t, 6, func(c *Config) {
					c.JournalDir = dir
					c.WaveSize = mode.waveSize
					c.Workers = workers
				})
				if _, _, err := h.svc.Compute(h.inputTable(t), "COMA"); err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"COMA.journal", "COMA.dag", "COMA.vdl", "COMA.waves"} {
					got := absent
					data, err := os.ReadFile(filepath.Join(dir, name))
					switch {
					case errors.Is(err, fs.ErrNotExist):
					case err != nil:
						t.Fatal(err)
					default:
						data = bytes.ReplaceAll(data, []byte(h.archSrv.URL), []byte("ARCHIVE"))
						sum := sha256.Sum256(data)
						got = hex.EncodeToString(sum[:])
					}
					if got != want[mode.name][name] {
						t.Errorf("%s: sha256 = %s, want %s", name, got, want[mode.name][name])
					}
				}
			})
		}
	}
}
