package trace

import "testing"

func BenchmarkGeneratorNextMem(b *testing.B) {
	k := testKernel()
	g, err := NewGenerator(k, 28, 1)
	if err != nil {
		b.Fatal(err)
	}
	var scratch []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, scratch = g.NextMem(i%28, i%k.WarpsPerCore, scratch[:0])
	}
}

func BenchmarkGeneratorNextCompute(b *testing.B) {
	k := testKernel()
	g, _ := NewGenerator(k, 28, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextCompute(i%28, i%k.WarpsPerCore)
	}
}
