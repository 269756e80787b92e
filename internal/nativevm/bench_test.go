package nativevm

import "testing"

// evalALoop is spectralnorm's inner loop as Clang -O0 lowers it: sum(n)
// calls eval_A(i, j) for every i, j below n, so a call of sum(n) makes n*n
// guest calls.
const evalALoop = `module "bench"
func @eval_A fn(i32, i32) f64 regs 18 {
entry:
  %r2 = alloca i32 name "i" !ctype "int" !line 2
  store i32 %r0, %r2 !line 2
  %r3 = alloca i32 name "j" !ctype "int" !line 2
  store i32 %r1, %r3 !line 2
  %r4 = load i32, %r2 !line 2
  %r5 = load i32, %r3 !line 2
  %r6 = add i32 %r4, %r5 !line 2
  %r7 = load i32, %r2 !line 2
  %r8 = load i32, %r3 !line 2
  %r9 = add i32 %r7, %r8 !line 2
  %r10 = add i32 %r9, 1 !line 2
  %r11 = mul i32 %r6, %r10 !line 2
  %r12 = sdiv i32 %r11, 2 !line 2
  %r13 = load i32, %r2 !line 2
  %r14 = add i32 %r12, %r13 !line 2
  %r15 = add i32 %r14, 1 !line 2
  %r16 = sitofp i32 %r15 to f64 !line 2
  %r17 = fdiv f64 1.0, %r16 !line 2
  ret f64 %r17 !line 2
}
func @sum fn(i32) f64 regs 24 {
entry:
  %r23 = alloca i32 name "n" !ctype "int" !line 3
  store i32 %r0, %r23 !line 3
  %r1 = alloca f64 name "sum" !ctype "double" !line 4
  store f64 0.0, %r1 !line 4
  %r2 = alloca i32 name "i" !ctype "int" !line 5
  store i32 0, %r2 !line 5
  br for.cond.1 !line 5
for.cond.1:
  %r3 = load i32, %r2 !line 5
  %r21 = load i32, %r23 !line 5
  %r4 = cmp slt i32 %r3, %r21 !line 5
  %r5 = zext i1 %r4 to i32 !line 5
  %r6 = cmp ne i32 %r5, 0 !line 5
  condbr %r6, for.body.2, for.end.4 !line 5
for.body.2:
  %r7 = alloca i32 name "j" !ctype "int" !line 6
  store i32 0, %r7 !line 6
  br for.cond.5 !line 6
for.post.3:
  %r19 = load i32, %r2 !line 5
  %r20 = add i32 %r19, 1 !line 5
  store i32 %r20, %r2 !line 5
  br for.cond.1 !line 5
for.end.4:
  %r22 = load f64, %r1 !line 8
  ret f64 %r22 !line 8
for.cond.5:
  %r8 = load i32, %r7 !line 6
  %r21 = load i32, %r23 !line 6
  %r9 = cmp slt i32 %r8, %r21 !line 6
  %r10 = zext i1 %r9 to i32 !line 6
  %r11 = cmp ne i32 %r10, 0 !line 6
  condbr %r11, for.body.6, for.end.8 !line 6
for.body.6:
  %r12 = load f64, %r1 !line 7
  %r13 = load i32, %r2 !line 7
  %r14 = load i32, %r7 !line 7
  %r15 = call f64 &eval_A(i32 %r13, i32 %r14) fixed 2 !line 7
  %r16 = fadd f64 %r12, %r15 !line 7
  store f64 %r16, %r1 !line 7
  br for.post.7 !line 7
for.post.7:
  %r17 = load i32, %r7 !line 6
  %r18 = add i32 %r17, 1 !line 6
  store i32 %r18, %r7 !line 6
  br for.cond.5 !line 6
for.end.8:
  br for.post.3 !line 6
}
`

// BenchmarkNativeCall runs sum(32) — 1024 guest calls of eval_A — on a
// reset bare-native machine. Register windows, frames and call edges are
// reused from call to call, so an op allocates nothing.
func BenchmarkNativeCall(b *testing.B) {
	const n = 32
	mod := build(b, evalALoop)
	m, err := New(mod, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Reset(Config{}); err != nil {
		b.Fatal(err)
	}
	idx, args := mod.FuncIndex("sum"), []Value{IntVal(n)}
	if _, err := m.Call(idx, args, 0, 0); err != nil { // lowers both functions
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Call(idx, args, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n), "ns/call")
}
