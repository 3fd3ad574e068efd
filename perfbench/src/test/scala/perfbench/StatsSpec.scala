package perfbench

import org.scalatest.funsuite.AnyFunSuite

/** Self-tests of the benchmark's own statistics, span accounting and output
  * format. Run with `sbt test` from perfbench/.
  */
class StatsSpec extends AnyFunSuite {

  private def near(a: Double, b: Double): Boolean = math.abs(a - b) < 1e-9

  test("percentiles interpolate between the closest ranks") {
    val xs = Seq(5.0, 1.0, 4.0, 2.0, 3.0)
    assert(Stats.percentile(xs, 0) == 1.0)
    assert(Stats.percentile(xs, 100) == 5.0)
    assert(Stats.median(xs) == 3.0)
    assert(near(Stats.percentile(xs, 90), 4.6))
    assert(Stats.median(Seq(1.0, 2.0, 3.0, 10.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
    assertThrows[IllegalArgumentException](Stats.median(Nil))
    assertThrows[IllegalArgumentException](Stats.percentile(xs, 101))
  }

  test("a p90 over 100 samples has ten samples beyond it") {
    val xs = (1 to 100).map(_.toDouble)
    assert(near(Stats.percentile(xs, 90), 90.1))
    assert(Stats.beyond(xs, 90) == 10)
    assert(Stats.beyond((1 to 17).map(_.toDouble), 90) == 2)
  }

  private def span(id: Int, parent: Int, layer: String, start: Long, end: Long): Span = {
    val s = new Span(id, parent, s"s$id", layer, start)
    s.end = end
    s
  }

  test("self time is duration less children and embedded calls") {
    val root  = span(0, -1, "harness", 0, 100)
    val plan  = span(1, 0, "core.opt", 10, 60)
    val exec  = span(2, 0, "core.exec", 60, 90)
    val inner = span(3, 2, "core.truth", 70, 80)
    plan.embedded("core.ce") = 15L
    val spans = Seq(root, plan, exec, inner)
    assert(Trace.selfNanos(spans) == Map(0 -> 20L, 1 -> 35L, 2 -> 20L, 3 -> 10L))
    assert(Trace.layerSelfNanos(spans) ==
      Map("harness" -> 20L, "core.opt" -> 35L, "core.ce" -> 15L, "core.exec" -> 20L, "core.truth" -> 10L))
    assert(Trace.layerSelfNanos(spans).values.sum == root.nanos)
    assert(Trace.subtree(spans, exec).map(_.id) == Vector(2, 3))
  }

  test("the tracer nests spans, books embedded calls, and records nothing when off") {
    val t = new Tracer(true)
    t.span("pass", "harness") {
      t.span("DPPlanner.plan", "core.opt") {
        t.embed("core.ce", 5L)
        t.embed("core.ce", 7L)
        t.count("subsets", 3)
      }
    }
    val Seq(pass, plan) = t.spans.toSeq
    assert(plan.parent == pass.id && pass.parent == -1)
    assert(plan.embedded("core.ce") == 12L)
    assert(plan.counts == Map("core.ce.calls" -> 2.0, "subsets" -> 3.0))

    val off = new Tracer(false)
    assert(off.span("x", "harness")(42) == 42)
    off.embed("core.ce", 1L)
    assert(off.spans.isEmpty)
  }

  test("per-layer metrics add the median set-up, the prepare phase and the median pass") {
    val t = new Tracer(true)
    for (rows <- Seq(10, 30, 20)) t.span("setup", "harness")(t.span("LocalDB.collect", "core.data")(t.count("rows", rows)))
    t.span("prepare", "harness")(())
    for (n <- Seq(1, 3)) t.span("pass", "harness") {
      (1 to n).foreach(_ => t.span("DPPlanner.plan", "core.opt")(t.embed("core.truth", 1L)))
      t.count("truth.subsets", n.toDouble)
    }
    val m = LayerMetrics(t.spans.toSeq, spark = true).map { case (n, v, _) => n -> v }.toMap
    assert(m.keySet == (LayerMetrics.Units ++ LayerMetrics.SparkUnits).map(_._1).toSet)
    assert(LayerMetrics(t.spans.toSeq, spark = false).map(_._1) == LayerMetrics.Units.map(_._1))
    assert(m("data.rows") == 20.0)
    assert(m("opt.plan_calls") == 2.0)
    assert(m("truth.card_calls") == 2.0)
    assert(m("truth.memo_hit_ratio") == 0.0)
    assert(m("exec.spark_runs") == 0.0)
  }

  test("JSON numbers keep every digit; strings are escaped") {
    assert(Json(1.2034) == "1.2034")
    assert(Json(0.1 + 0.2) == "0.30000000000000004")
    assert(Json(3.0) == "3.0")
    assert(Json(1e-7) == "1.0E-7")
    assert(Json("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"")
    assertThrows[IllegalArgumentException](Json(Double.NaN))
  }

  test("the result line has exactly the keys correct, attempted, failed and metrics") {
    val line = Main.resultLine(10, 1, Seq(("latency_ms", 1.25, "ms"), ("setup_s", 0.5, "s")))
    assert(line ==
      """{"correct": false, "attempted": 10, "failed": 1, "metrics": {""" +
      """"latency_ms": {"value": 1.25, "unit": "ms"}, "setup_s": {"value": 0.5, "unit": "s"}}}""")
    assert(Main.resultLine(3, 0, Nil).startsWith("""{"correct": true, "attempted": 3, "failed": 0,"""))
  }

  test("arguments are --workload, --seed, --seconds, --trace and --work-dir") {
    val ok = Main.parse(Array("--workload", "plan-stats", "--seed", "7", "--seconds", "10", "--trace", "1",
      "--work-dir", "w"))
    assert(ok.map(o => (o.workload.name, o.seed, o.seconds, o.trace)) == Right(("plan-stats", 7L, 10, true)))
    assert(Main.parse(Array("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0",
      "--work-dir", "w")).isLeft)
    assert(Main.parse(Array("--workload", "plan-stats", "--seed", "1", "--seconds", "0", "--trace", "0",
      "--work-dir", "w")).isLeft)
  }
}
