package main

import (
	"fmt"
	"math/rand"

	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/workloads"
)

// prog is one guest program of the catalogue. Its key names the program and
// every input it was built from; the reference file is keyed by it.
type prog struct {
	key   string
	build func() (*image.Image, error)
}

// variants is how many pinned inputs each kernel family offers. The seed
// picks one per slot, so every input a run can draw has a pinned reference.
const variants = 8

// family is a guest kernel: it returns variant k built for a cluster of
// nodes nodes (kernels with static partitioning split their work by it).
type family func(k, nodes int) prog

func imgProg(key string, build func() (*image.Image, error)) prog {
	return prog{key: key, build: build}
}

// Variants differ in size by at most a few percent, or only in data, so a
// seed moves virtual time a little and never changes what a kernel stresses.
var (
	piFam family = func(k, _ int) prog {
		terms := 4000 + 16*k
		return imgProg(fmt.Sprintf("pi(8,4,%d)", terms), func() (*image.Image, error) { return workloads.Pi(8, 4, terms) })
	}
	swaptionsFam family = func(k, nodes int) prog {
		trials := 120 + k
		return imgProg(fmt.Sprintf("swaptions(8,16,%d,%d)", trials, nodes), func() (*image.Image, error) {
			return workloads.Swaptions(8, 16, trials, nodes)
		})
	}
	// Blackscholes, x264, fluidanimate and falseshare take no input that
	// moves their virtual time by only a few percent (a blackscholes option
	// count off the page size changes its coherence traffic several-fold on
	// four slaves; two more falseshare rounds can cost 17% more), so every
	// seed runs the same shape.
	blackscholesFam family = func(_, nodes int) prog {
		return imgProg(fmt.Sprintf("blackscholes(8,2048,2,%d)", nodes), func() (*image.Image, error) {
			return workloads.Blackscholes(8, 2048, 2, nodes)
		})
	}
	x264Fam family = func(_, _ int) prog {
		return imgProg("x264(8,4,8)", func() (*image.Image, error) { return workloads.X264(8, 4, 8) })
	}
	fluidFam family = func(_, nodes int) prog {
		return imgProg(fmt.Sprintf("fluidanimate(8,64,5,%d)", nodes), func() (*image.Image, error) {
			return workloads.Fluidanimate(8, 64, 5, nodes)
		})
	}
	cannealFam family = func(k, _ int) prog {
		seed := int64(k + 1)
		return imgProg(fmt.Sprintf("canneal(8,4096,200,%d)", seed), func() (*image.Image, error) {
			return workloads.Canneal(8, 4096, 200, seed)
		})
	}
	dedupFam family = func(k, _ int) prog {
		items := 120 + 2*k
		return imgProg(fmt.Sprintf("dedup(2,4,2,%d,64,16)", items), func() (*image.Image, error) {
			return workloads.Dedup(2, 4, 2, items, 64, 16)
		})
	}
	falseshareFam family = func(_, _ int) prog {
		return imgProg("falseshare(8,4,64,200)", func() (*image.Image, error) { return workloads.FalseShare(8, 4, 64, 200) })
	}
	// Streamcluster has no data input to vary. Both shapes run every round:
	// under splitting on four slaves the 1024-point shape deadlocks (every
	// thread futex-waiting) and the 2048-point shape passes.
	streamcluster1024Fam family = func(_, _ int) prog {
		return imgProg("streamcluster(8,1024,8,8)", func() (*image.Image, error) { return workloads.Streamcluster(8, 1024, 8, 8) })
	}
	streamcluster2048Fam family = func(_, _ int) prog {
		return imgProg("streamcluster(8,2048,8,8)", func() (*image.Image, error) { return workloads.Streamcluster(8, 2048, 8, 8) })
	}
	livePiFam family = func(k, _ int) prog {
		terms := 2000 + 16*k
		return imgProg(fmt.Sprintf("pi(4,2,%d)", terms), func() (*image.Image, error) { return workloads.Pi(4, 2, terms) })
	}
	liveFluidFam family = func(_, nodes int) prog {
		return imgProg(fmt.Sprintf("fluidanimate(8,32,4,%d)", nodes), func() (*image.Image, error) {
			return workloads.Fluidanimate(8, 32, 4, nodes)
		})
	}
)

// Service jobs are mini-C sources posted to the daemon, which compiles them
// at admission. Half of the submissions repeat one of the fixed sources;
// the other half are distinct variants, so a compile or translation cache
// can win on the first half only.
const (
	srcSum = `long N = %d;
long SALT = %d;
long main() {
	long s = 0;
	for (long i = 0; i < N; i++) s += (i * i + SALT) %% 1009;
	print_str("sum=");
	print_long(s);
	print_char('\n');
	return 0;
}
`
	srcCount = `long THREADS = %d;
long ITERS = %d;
long SALT = %d;
long lock[1];
long counter[1];
long worker(long idx) {
	for (long i = 0; i < ITERS; i++) {
		mutex_lock(lock);
		counter[0] = counter[0] + idx + 1;
		mutex_unlock(lock);
	}
	return 0;
}
long main() {
	counter[0] = SALT;
	long tids[8];
	for (long i = 0; i < THREADS; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < THREADS; i++) thread_join(tids[i]);
	print_str("count=");
	print_long(counter[0]);
	print_char('\n');
	return 0;
}
`
	srcSieve = `long N = %d;
long SALT = %d;
char *comp;
long main() {
	comp = (char*)malloc(N + 8);
	memset(comp, 0, N + 8);
	long count = 0;
	for (long i = 2; i < N; i++) {
		if (comp[i] == 0) {
			count++;
			for (long j = i * i; j < N; j += i) comp[j] = 1;
		}
	}
	print_str("primes=");
	print_long(count + SALT);
	print_char('\n');
	return 0;
}
`
	srcMatmul = `long N = %d;
long THREADS = %d;
long SALT = %d;
double *a;
double *b;
double *c;
long worker(long idx) {
	for (long i = idx; i < N; i += THREADS) {
		for (long j = 0; j < N; j++) {
			double s = 0.0;
			for (long k = 0; k < N; k++) s += a[i * N + k] * b[k * N + j];
			c[i * N + j] = s;
		}
	}
	return 0;
}
long main() {
	a = (double*)malloc(N * N * 8);
	b = (double*)malloc(N * N * 8);
	c = (double*)malloc(N * N * 8);
	for (long i = 0; i < N * N; i++) {
		a[i] = (double)((i + SALT) %% 13);
		b[i] = (double)(i %% 7) - 3.0;
	}
	long tids[8];
	for (long i = 0; i < THREADS; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < THREADS; i++) thread_join(tids[i]);
	double tr = 0.0;
	for (long i = 0; i < N * N; i++) tr += c[i];
	print_str("mm=");
	print_double(tr);
	print_char('\n');
	return 0;
}
`
)

// serviceVariants is the size of the pinned catalogue of distinct service
// sources; a run draws them without replacement.
const serviceVariants = 1536

// srcProg is a service program: its key, mini-C source and build function.
type srcProg struct {
	prog
	name string
	src  string
}

func newSrcProg(name, key, src string) srcProg {
	return srcProg{
		prog: imgProg(key, func() (*image.Image, error) { return grt.BuildProgram(name+".mc", src) }),
		name: name,
		src:  src,
	}
}

// serviceProg is one service source: template t (sum, count, sieve,
// matmul) at its fixed size, with a salt that makes the source, the guest
// code and the console distinct while the work stays the same.
func serviceProg(t, salt int) srcProg {
	switch t {
	case 0:
		return newSrcProg("sum", fmt.Sprintf("svc:sum(90000,%d)", salt), fmt.Sprintf(srcSum, 90000, salt))
	case 1:
		return newSrcProg("count", fmt.Sprintf("svc:count(4,270,%d)", salt), fmt.Sprintf(srcCount, 4, 270, salt))
	case 2:
		return newSrcProg("sieve", fmt.Sprintf("svc:sieve(30000,%d)", salt), fmt.Sprintf(srcSieve, 30000, salt))
	default:
		return newSrcProg("matmul", fmt.Sprintf("svc:matmul(24,2,%d)", salt), fmt.Sprintf(srcMatmul, 24, 2, salt))
	}
}

// serviceFixed are the sources that repeat across submissions.
func serviceFixed() []srcProg {
	return []srcProg{serviceProg(0, 0), serviceProg(1, 0), serviceProg(2, 0)}
}

// serviceVariant is the i-th distinct source of the catalogue.
func serviceVariant(i int) srcProg { return serviceProg(i%4, i/4+1) }

// pick draws one variant of f for a slot.
func pick(rng *rand.Rand, f family, nodes int) prog {
	return f(rng.Intn(variants), nodes)
}

// allProgs lists every program any seed can draw, for reference generation.
func allProgs() []prog {
	var out []prog
	for _, f := range []family{piFam, x264Fam, cannealFam, dedupFam, falseshareFam,
		streamcluster1024Fam, streamcluster2048Fam, livePiFam} {
		for k := 0; k < variants; k++ {
			out = append(out, f(k, 1))
		}
	}
	for _, fn := range []struct {
		f     family
		nodes int
	}{{blackscholesFam, 1}, {blackscholesFam, 4}, {swaptionsFam, 1}, {swaptionsFam, 4},
		{fluidFam, 4}, {liveFluidFam, 2}} {
		for k := 0; k < variants; k++ {
			out = append(out, fn.f(k, fn.nodes))
		}
	}
	for _, s := range serviceFixed() {
		out = append(out, s.prog)
	}
	for i := 0; i < serviceVariants; i++ {
		out = append(out, serviceVariant(i).prog)
	}
	seen := map[string]bool{}
	uniq := out[:0]
	for _, p := range out {
		if !seen[p.key] {
			seen[p.key] = true
			uniq = append(uniq, p)
		}
	}
	return uniq
}
