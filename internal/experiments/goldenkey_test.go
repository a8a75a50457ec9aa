package experiments

import "testing"

// TestCacheKeyGoldens pins the experiment cache keys across the full
// option envelope every call site uses. These keys address warm -cachedir
// disk caches: a changed literal means existing caches silently
// re-execute, so any intentional change here must be treated like a
// diskcache envelopeVersion bump and called out in docs/ARCHITECTURE.md.
func TestCacheKeyGoldens(t *testing.T) {
	type optKeys struct {
		opt  Options
		keys map[string]string
	}
	goldens := []optKeys{
		{Options{}, map[string]string{
			"table1": "6709bc29ac931add", "table2": "f7926bfd61e4dc2a",
			"table3": "ea31f0665fecd10f", "table4": "9fca42fa6add57f4",
			"fig2a": "5b707fd1fec0db75", "fig2b": "5c3bee4a978a16a2",
			"fig2c": "e826932f70cd23a7", "fig2d": "d61ac7770318d90c",
			"fig3": "a1cc8af9b0d30fe9", "fig4": "6e50f9c32bbcbe92",
			"fig5": "15f63beca75eca17", "fig6": "9de4f41291a854a8",
			"fig7": "8208f47c3bbab325", "abl-growth": "f7b515e6b8588ad5",
			"abl-topology": "38c0ce436e912153", "abl-strategy": "e630ec098e8c573f",
			"abl-budget": "5cba1b77b765ace7", "ext-critical": "a50e97b69a35a985",
			"ext-locking": "db1f544d3930da65", "ext-contend": "8f0ce391ce9ecd71",
			"ext-contend-split": "9cb000bdbac73a82",
		}},
		{Options{Quick: true}, map[string]string{
			"table1": "b228e01d06f99bd0", "table2": "4de02e137ed1c795",
			"table3": "12608c5e9bc49e46", "table4": "9cc064031bb384bb",
			"fig2a": "874656fe53e6ecb8", "fig2b": "667f7191c69800bd",
			"fig2c": "8d46739cf0384cae", "fig2d": "d501863651d83fe3",
			"fig3": "d33fc7fc36d731fc", "fig4": "ff29a91ae8fbe4ad",
			"fig5": "0fa9e280861eef9e", "fig6": "e76ca2498296dfdf",
			"fig7": "14e6ea84994aaba8", "abl-growth": "a8130ad782e58e18",
			"abl-topology": "09fee77f1a40232a", "abl-strategy": "d96772794eec83b6",
			"abl-budget": "c833f6fb0c85606e", "ext-critical": "aa735017bcb1b288",
			"ext-locking": "10f9da1e018c6268", "ext-contend": "93481f8a655d30f4",
			"ext-contend-split": "26e92c9c6d80a01d",
		}},
		{Options{UseDuration: true}, map[string]string{
			"table1": "f1653791eaebd4fa", "table2": "99c645dbbb9034cf",
			"table3": "3f951afcbb81a64c", "table4": "f52bd1d87b2f3a81",
			"fig2a": "a825734fc6b9bf12", "fig2b": "e138780f163e4387",
			"fig2c": "", // timing experiment on wall clock: uncacheable
			"fig2d": "4e75e2c58032fd19", "fig3": "c52fef61a2a2edfe",
			"fig4": "a3a46ebe2c167fd7", "fig5": "9129ad0166c4f074",
			"fig6": "3cae77bb7d4391cd", "fig7": "ef91284e353f82e2",
			"abl-growth": "858ed9cf20177972", "abl-topology": "1aed62c859b4f3c8",
			"abl-strategy": "56c964fc6683649c", "abl-budget": "b9c01bd1d5f57964",
			"ext-critical": "53bdf740a535e142", "ext-locking": "6784b38dec019622",
			"ext-contend": "1f2594c08a6680e6", "ext-contend-split": "ab6dbfdf253babe7",
		}},
	}
	for _, g := range goldens {
		for _, e := range Registry() {
			want, ok := g.keys[e.ID]
			if !ok {
				t.Errorf("no golden for %s (quick=%v dur=%v) — add one from cacheKey output", e.ID, g.opt.Quick, g.opt.UseDuration)
				continue
			}
			if got := cacheKey(e, g.opt); got != want {
				t.Errorf("cacheKey(%s, quick=%v dur=%v) = %q, golden %q", e.ID, g.opt.Quick, g.opt.UseDuration, got, want)
			}
		}
	}
}
