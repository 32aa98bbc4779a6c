package dtd

// CheckSiblingIndex is checkSiblingIndex for the external tests.
var CheckSiblingIndex = checkSiblingIndex
