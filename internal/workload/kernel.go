package workload

// SqDists writes to dst[c] the squared Euclidean distance from pt to row
// c of centers, for every c < len(dst); each row holds len(pt) values.
// Every sum adds its coordinates in index order, as a plain per-center
// loop does, so the results are bit-identical to one. Four rows are
// summed side by side: a single sum is one chain of dependent adds,
// while four independent chains overlap in the FP pipeline.
func SqDists(dst, pt, centers []float64) {
	d := len(pt)
	c := 0
	for ; c+3 < len(dst); c += 4 {
		c0 := centers[c*d:][:d]
		c1 := centers[(c+1)*d:][:d]
		c2 := centers[(c+2)*d:][:d]
		c3 := centers[(c+3)*d:][:d]
		var s0, s1, s2, s3 float64
		for j, v := range pt {
			e0 := v - c0[j]
			e1 := v - c1[j]
			e2 := v - c2[j]
			e3 := v - c3[j]
			s0 += e0 * e0
			s1 += e1 * e1
			s2 += e2 * e2
			s3 += e3 * e3
		}
		q := dst[c : c+4]
		q[0], q[1], q[2], q[3] = s0, s1, s2, s3
	}
	for ; c < len(dst); c++ {
		row := centers[c*d:][:d]
		s := 0.0
		for j, v := range pt {
			e := v - row[j]
			s += e * e
		}
		dst[c] = s
	}
}
