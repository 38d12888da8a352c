package tbr

import (
	"fmt"
	"sort"
)

// presets returns named GPU configurations for quick design-space
// studies. "mali450" is the paper's Table I machine (DefaultConfig);
// the others bracket it: a low-end part with half the processors and
// caches, and a high-end part with twice the processors, a larger L2
// and a faster clock. "tbdr" is the Table I machine with deferred
// shading.
func presets() map[string]Config {
	mali := DefaultConfig()

	low := DefaultConfig()
	low.FrequencyMHz = 450
	low.NumVertexProcessors = 2
	low.NumFragmentProcessors = 2
	low.NumTextureCaches = 2
	low.TextureCache.SizeBytes = 4 << 10
	low.TileCache.SizeBytes = 16 << 10
	low.L2.SizeBytes = 128 << 10
	low.FragmentQueueEntries = 32
	low.ColorQueueEntries = 32

	high := DefaultConfig()
	high.FrequencyMHz = 900
	high.NumVertexProcessors = 8
	high.NumFragmentProcessors = 8
	high.NumTextureCaches = 8
	high.TileCache.SizeBytes = 64 << 10
	high.L2.SizeBytes = 512 << 10
	high.FragmentQueueEntries = 128
	high.ColorQueueEntries = 128

	tbdr := DefaultConfig()
	tbdr.DeferredShading = true

	return map[string]Config{
		"mali450": mali,
		"lowend":  low,
		"highend": high,
		"tbdr":    tbdr,
	}
}

// PresetNames returns the preset names in sorted order.
func PresetNames() []string {
	m := presets()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset returns a named configuration or an error listing valid names.
func Preset(name string) (Config, error) {
	cfg, ok := presets()[name]
	if !ok {
		return Config{}, fmt.Errorf("tbr: unknown preset %q (valid: %v)", name, PresetNames())
	}
	return cfg, nil
}
