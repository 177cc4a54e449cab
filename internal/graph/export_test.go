package graph

// ReadChunked is readChunked for the external test package: ReadStream
// with a forced chunk count.
var ReadChunked = readChunked
