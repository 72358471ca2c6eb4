package bmc

// EncodeCat is the encoding of a test under a compiled cat model, for
// tests of models that no ModelID names.
var EncodeCat = encode
