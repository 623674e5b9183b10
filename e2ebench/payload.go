package main

// payload returns the n-byte string value the generator writes for (key,
// version) under seed. It is a pure function, so a reader can check any
// value it gets back without the benchmark keeping the bytes.
func payload(seed, key, version int64, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
	b := make([]byte, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(key)*0xbf58476d1ce4e5b9 ^ uint64(version)*0x94d049bb133111eb
	for i := 0; i < n; {
		x = splitmix(x)
		for v := x; v != 0 && i < n; v >>= 6 {
			b[i] = alphabet[v&63]
			i++
		}
	}
	return string(b)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
