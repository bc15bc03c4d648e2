package nn

import (
	"fmt"
	"math"
)

// The scalar oracle: every layer's forward and backward as the textbook loop
// over one sample, the order of operations the batched kernels (batch.go,
// backward.go) are held to bit for bit. Nothing outside the tests runs them.
// They take their input explicitly instead of caching it, and they allocate
// what they return. Every product term is fused onto its running sum with
// math.FMA, one rounding, the kernels' contract on every architecture.

// refLayer is the oracle's view of a layer: every Layer, and a Network,
// implements it in this file.
type refLayer interface {
	// refForward returns the layer's output for the sample x.
	refForward(x []float64) []float64
	// refBackward accumulates the parameter gradients of the output
	// gradient dy at the sample x into the layer's Grad blocks and returns
	// the gradient with respect to x.
	refBackward(x, dy []float64) []float64
}

// refForward computes W·x + b, each output seeded with its bias and
// accumulated over the inputs in index order.
func (d *Dense) refForward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", len(x), d.In))
	}
	y := make([]float64, d.Out)
	for o := range y {
		row := d.w.Value[o*d.In : (o+1)*d.In]
		s := d.b.Value[o]
		for i, v := range x {
			s = math.FMA(row[i], v, s)
		}
		y[o] = s
	}
	return y
}

// refBackward accumulates dW += dy·xᵀ and db += dy and returns Wᵀ·dy, each
// input gradient seeded at zero and accumulated over the outputs in index
// order.
func (d *Dense) refBackward(x, dy []float64) []float64 {
	dx := make([]float64, d.In)
	for o, g := range dy {
		d.b.Grad[o] += g
		row := d.w.Value[o*d.In : (o+1)*d.In]
		grow := d.w.Grad[o*d.In : (o+1)*d.In]
		for i := range dx {
			grow[i] = math.FMA(g, x[i], grow[i])
			dx[i] = math.FMA(g, row[i], dx[i])
		}
	}
	return dx
}

// refForward cross-correlates x with every filter, channel-major: each
// response seeded with its filter's bias and accumulated over the kernel in
// index order.
func (c *Conv1D) refForward(x []float64) []float64 {
	if len(x) != c.InLen {
		panic(fmt.Sprintf("nn: Conv1D input %d, want %d", len(x), c.InLen))
	}
	ol := c.outLen()
	y := make([]float64, c.Filters*ol)
	for f := 0; f < c.Filters; f++ {
		w := c.w.Value[f*c.Kernel : (f+1)*c.Kernel]
		for t := 0; t < ol; t++ {
			s := c.b.Value[f]
			for k, wk := range w {
				s = math.FMA(wk, x[t*c.Stride+k], s)
			}
			y[f*ol+t] = s
		}
	}
	return y
}

// refBackward accumulates the filter and bias gradients, filter by filter
// and position by position, skipping zero response gradients, and returns
// the input gradient.
func (c *Conv1D) refBackward(x, dy []float64) []float64 {
	ol := c.outLen()
	dx := make([]float64, c.InLen)
	for f := 0; f < c.Filters; f++ {
		w := c.w.Value[f*c.Kernel : (f+1)*c.Kernel]
		gw := c.w.Grad[f*c.Kernel : (f+1)*c.Kernel]
		for t := 0; t < ol; t++ {
			g := dy[f*ol+t]
			if g == 0 {
				continue
			}
			c.b.Grad[f] += g
			base := t * c.Stride
			for k := range w {
				gw[k] = math.FMA(g, x[base+k], gw[k])
				dx[base+k] = math.FMA(g, w[k], dx[base+k])
			}
		}
	}
	return dx
}

// refForward is `v > 0 ? v : 0`, elementwise.
func (r *ReLU) refForward(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
		}
	}
	return y
}

// refBackward passes dy where x was positive and zero elsewhere.
func (r *ReLU) refBackward(x, dy []float64) []float64 {
	dx := make([]float64, len(dy))
	for i, g := range dy {
		if x[i] > 0 {
			dx[i] = g
		}
	}
	return dx
}

// refForward runs Inner on the head of x and appends the rest of x.
func (s *Split) refForward(x []float64) []float64 {
	if len(x) < s.Head {
		panic("nn: Split input shorter than head")
	}
	return append(s.Inner.refForward(x[:s.Head]), x[s.Head:]...)
}

// refBackward back-propagates the head's share of dy through Inner and
// passes the tail's through.
func (s *Split) refBackward(x, dy []float64) []float64 {
	innerOut := s.Inner.OutDim(s.Head)
	return append(s.Inner.refBackward(x[:s.Head], dy[:innerOut]), dy[innerOut:]...)
}

// refForward runs the stack on one sample.
func (n *Network) refForward(x []float64) []float64 {
	for _, l := range n.layers {
		x = l.(refLayer).refForward(x)
	}
	return x
}

// refBackward runs the stack forward on x, keeping every layer's input, then
// back-propagates dy through it, accumulating parameter gradients, and
// returns the input gradient.
func (n *Network) refBackward(x, dy []float64) []float64 {
	ins := make([][]float64, len(n.layers))
	for i, l := range n.layers {
		ins[i] = x
		x = l.(refLayer).refForward(x)
	}
	for i := len(n.layers) - 1; i >= 0; i-- {
		dy = n.layers[i].(refLayer).refBackward(ins[i], dy)
	}
	return dy
}
