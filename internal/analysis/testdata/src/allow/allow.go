// Package allow exercises the suppression comment itself: an allow without
// analyzer names or without a `-- justification` is a diagnostic, so silent
// blanket waivers cannot accumulate.
package allow

func justificationMissing() {
	//rasql:allow simclock // want `needs analyzer names and a`
	_ = 0
}

func namesMissing() {
	//rasql:allow -- because I said so // want `needs analyzer names and a`
	_ = 0
}

func wellFormed() {
	//rasql:allow simclock -- fixture: carries its justification
	_ = 0
}

func unknownAnalyzer() {
	//rasql:allow simclock nosuchcheck -- fixture: one name is not registered // want `names "nosuchcheck", which is not a registered analyzer`
	_ = 0
}
