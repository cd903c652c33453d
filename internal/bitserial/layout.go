package bitserial

// The vertical-layout transform: converting between horizontal elements
// (one int64 per element) and bit planes (one row per bit position, one
// column per element). In the array this conversion is what SIMDRAM's
// transposition unit does; here a 64×64 bit-matrix transpose converts 64
// elements and 64 planes per 64-bit word at once.

// transposeMasks[s] selects the low half of every 2j-bit group for the
// block width j = 32>>s of stage s.
var transposeMasks = [6]uint64{
	0x00000000FFFFFFFF,
	0x0000FFFF0000FFFF,
	0x00FF00FF00FF00FF,
	0x0F0F0F0F0F0F0F0F,
	0x3333333333333333,
	0x5555555555555555,
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of m[i]
// becomes bit i of m[j]. Each stage swaps the off-diagonal j×j blocks of
// every 2j×2j block, halving j from 32 to 1.
func transpose64(m *[64]uint64) {
	for s, j := 0, 32; j != 0; s, j = s+1, j>>1 {
		mask := transposeMasks[s]
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (m[k]>>uint(j) ^ m[k+j]) & mask
			m[k+j] ^= t
			m[k] ^= t << uint(j)
		}
	}
}

// LoadPlanes stores values in vertical layout: bit i of values[j] goes to
// column j of planes[i]. Columns at or beyond len(values) keep their
// contents, and value bits at or above len(planes) are ignored. At most 64
// planes; every plane must hold at least len(values) columns.
func LoadPlanes(planes [][]uint64, values []int64) {
	var m [64]uint64
	for w := 0; 64*w < len(values); w++ {
		chunk := values[64*w:]
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		for j, v := range chunk {
			m[j] = uint64(v)
		}
		transpose64(&m)
		keep := ^uint64(0) << uint(len(chunk)) // zero when the word is full
		for i, p := range planes {
			p[w] = p[w]&keep | m[i]&^keep
		}
	}
}

// ReadPlanes is the inverse of LoadPlanes: out[j] receives column j of
// planes[i] as bit i, zero-extended above len(planes). At most 64 planes.
func ReadPlanes(out []int64, planes [][]uint64) {
	var m [64]uint64
	for w := 0; 64*w < len(out); w++ {
		for i, p := range planes {
			m[i] = p[w]
		}
		for i := len(planes); i < 64; i++ {
			m[i] = 0
		}
		transpose64(&m)
		chunk := out[64*w:]
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		for j := range chunk {
			chunk[j] = int64(m[j])
		}
	}
}
