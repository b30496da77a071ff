package rasql

// BaseFingerprint hashes every physical base side p has published (see
// fixpoint.BaseSlot.Fingerprint); 0 when no execution has built one yet.
func BaseFingerprint(p *Prepared, workers int) uint64 {
	var h uint64
	for i := range p.bases {
		h = h*31 + p.bases[i].Fingerprint(workers)
	}
	return h
}
