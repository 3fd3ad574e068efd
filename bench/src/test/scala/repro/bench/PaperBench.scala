package repro.bench

import repro.SparkSpec
import repro.harness.{Experiment, Paper}

/** Bench knobs. Simulated tables run at REPRO_BENCH_SF (default 0.1: 12k
  * rows of cast_info); REPRO_REAL=0 skips the real Spark executions of Fig 1,
  * which run at REPRO_REAL_SF (default 0.07).
  */
object Bench {
  val SF: Double     = sys.env.get("REPRO_BENCH_SF").fold(Paper.DefaultSf)(_.toDouble)
  val Real: Boolean  = sys.env.getOrElse("REPRO_REAL", "1") == "1"
  val RealSF: Double = sys.env.get("REPRO_REAL_SF").fold(Paper.DefaultRealSf)(_.toDouble)
}

/** Runs one paper experiment at bench scale, printing its tables, and asserts
  * its gates. The headline runs are computed once and shared by every suite.
  */
abstract class PaperBench(exp: Experiment) extends SparkSpec {
  test(exp.label) {
    assume(!exp.real || Bench.Real, "disabled via REPRO_REAL=0")
    val failures = exp.run(spark, Bench.SF, Bench.RealSF)
    assert(failures.isEmpty, failures.mkString("; "))
  }
}

class TableIBench extends PaperBench(Paper.table1)
class TableIIBench extends PaperBench(Paper.table2)
class TableIIIBench extends PaperBench(Paper.table3)
class SkewDemoBench extends PaperBench(Paper.skew)
class TableVIBench extends PaperBench(Paper.table6)
class Top20Bench extends PaperBench(Paper.fig1)
class PerfectNSweepBench extends PaperBench(Paper.fig2)
class ThresholdSweepBench extends PaperBench(Paper.fig7)
class ReoptPerfectNBench extends PaperBench(Paper.fig8)
