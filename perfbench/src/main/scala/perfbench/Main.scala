package perfbench

import java.io.{File, PrintWriter}
import java.security.MessageDigest

import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.SparkSession

import repro.core.data.LocalDB
import repro.core.opt.CostModel
import repro.core.stats.Analyzer
import repro.harness.Workbench
import repro.imdb.ImdbLite
import repro.workload.QuerySpec

/** The benchmark's JVM: one closed-loop client that runs one workload's
  * queries one after another, in passes, for at least `--seconds`.
  *
  * {{{
  * perfbench.Main --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
  * }}}
  *
  * The last line of standard output is the result: end-to-end metrics when
  * untraced, per-layer metrics when traced. The line before it records the
  * run environment, sample counts and the digest of the paper outputs.
  */
object Main {

  /** IMDB-lite draws from `rand()` per partition, so its contents depend on
    * the partition count of `spark.range`; it is pinned here, independent of
    * the thread count.
    */
  val Partitions   = 4
  val MaxThreads   = 2
  val SetupRepeats = 3
  val MinPasses    = 2

  /** IMDB-lite seed of the timed passes (the repository's baseline seed).
    * The work of a pass changes by about a fifth from one seed to the next,
    * so the timed data stay fixed. `--seed` picks the data of the repeated
    * set-ups instead, and the correctness gates run on those data too.
    */
  val DataSeed = 42L

  def dataSeeds(seed: Long): Seq[Long] =
    DataSeed +: (1 until SetupRepeats).map(k => DataSeed + 2 * math.abs(seed) + k)

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean, workDir: File)

  /** One query's unit in one pass. `line` is None when the unit threw. */
  final case class UnitRun(query: String, ms: Double, line: Option[String], configMs: Map[String, Double],
                           problems: Seq[String])

  final case class PassRun(units: Vector[UnitRun], wallMs: Double)

  def parse(args: Array[String]): Either[String, Opts] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      name <- need("workload")
      wl   <- Workload.byName(name).toRight(s"unknown workload '$name'; one of ${Workload.all.map(_.name).mkString(", ")}")
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      tr   <- need("trace").flatMap {
                case "0" => Right(false)
                case "1" => Right(true)
                case s   => Left(s"bad --trace $s")
              }
      dir  <- need("work-dir")
    } yield Opts(wl, seed, secs, tr, new File(dir))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args) match {
      case Right(o)  => o
      case Left(msg) => System.err.println(s"perfbench: $msg"); sys.exit(2)
    }
    val threads = math.min(MaxThreads, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.default.parallelism", Partitions.toString)
      .config("spark.sql.shuffle.partitions", Partitions.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(opts.workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(opts.workDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    val ok = try run(opts, spark, threads) finally spark.stop()
    sys.exit(if (ok) 0 else 1)
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private val started = System.nanoTime()

  /** Progress on standard error, with seconds since the JVM's start of work. */
  def log(msg: String): Unit = System.err.println(f"[perfbench ${secondsSince(started)}%7.1f s] $msg")

  /** Workbench construction: `Workbench.apply` when untraced; traced, the
    * same steps one by one, so that each layer gets its span.
    */
  def setup(spark: SparkSession, sf: Double, seed: Long, t: Tracer): Workbench =
    if (!t.enabled) Workbench(spark, sf, seed)
    else {
      Workbench.configure(spark)
      val cfg   = ImdbLite.Config(sf, seed)
      val db    = t.span("ImdbLite.database", "imdb")(ImdbLite.database(spark, cfg))
      val local = t.span("LocalDB.collect", "core.data") {
        val l = LocalDB.collect(db)
        t.count("rows", l.tables.values.map(_.rowCount.toDouble).sum)
        l
      }
      val cat = t.span("Analyzer.analyze", "core.stats")(Analyzer.analyze(local))
      Workbench(spark, cfg, db, local, cat, CostModel())
    }

  /** The query order of timed pass `k`: the same permutation in every run,
    * so that runs stay comparable, but another one in each pass, so that the
    * queries that set a percentile are spread over the pass instead of
    * running together at one point of it, where one slow stretch of the
    * host would move them all.
    */
  def passOrder(queries: Vector[QuerySpec], k: Int): Vector[QuerySpec] =
    new scala.util.Random(k).shuffle(queries)

  /** Runs each query once, in the given order. */
  def pass(wl: Workload, queries: Vector[QuerySpec], wb: Workbench, t: Tracer): PassRun = {
    val t0 = System.nanoTime()
    val units = queries.map { q =>
      val u0  = System.nanoTime()
      val out = Try(t.span("query", "harness")(wl.unit(wb, q, t)))
      val ms  = (System.nanoTime() - u0) / 1e6
      out match {
        case Success(o) =>
          val problems = Try(o.problems()).fold(e => Seq(s"${q.name}: check threw $e"), identity)
          UnitRun(q.name, ms, Some(o.line), o.configMs, problems)
        case Failure(e) =>
          e.printStackTrace()
          UnitRun(q.name, ms, None, Map.empty, Seq(s"${q.name}: threw $e"))
      }
    }
    PassRun(units, (System.nanoTime() - t0) / 1e6)
  }

  def sha256(lines: Seq[String]): String =
    MessageDigest.getInstance("SHA-256").digest(lines.mkString("\n").getBytes("UTF-8"))
      .map(b => f"${b & 0xff}%02x").mkString

  def run(opts: Opts, spark: SparkSession, threads: Int): Boolean = {
    val wl       = opts.workload
    val t        = new Tracer(opts.trace)
    val counters = if (opts.trace && wl.runsSpark) Some(new SparkCounters(spark.sparkContext)) else None

    /** A top-level span that also books GC and Spark work done inside it. */
    def phase[A](name: String)(body: => A): A = t.span(name, "harness") {
      val (gcMs, gcN) = (Gc.millis, Gc.count)
      val (jobs, tms) = counters.fold((0L, 0L))(_.snapshot())
      val r = body
      t.count("jvm.gc_ms", (Gc.millis - gcMs).toDouble)
      t.count("jvm.gc_count", (Gc.count - gcN).toDouble)
      counters.foreach { c =>
        val (j, ms) = c.snapshot()
        t.count("spark.jobs", (j - jobs).toDouble)
        t.count("spark.task_ms", (ms - tms).toDouble)
      }
      r
    }

    // Set-up, repeated; the timed passes use the first.
    val setups = dataSeeds(opts.seed).map { seed =>
      val t0 = System.nanoTime()
      val wb = phase("setup")(setup(spark, wl.sf, seed, t))
      (secondsSince(t0), wb)
    }
    val wb = setups.head._2
    val p0 = System.nanoTime()
    phase("prepare")(wl.prepare(wb, t))
    val setupS = Stats.median(setups.map(_._1)) + secondsSince(p0)
    log(f"set-up ${setups.map(_._1).map(x => f"$x%.2f").mkString("/")} s, prepare ${secondsSince(p0)}%.2f s")

    val w0      = System.nanoTime()
    var warmUps = 0
    while (warmUps == 0 || secondsSince(w0) < wl.warmUpSeconds) {
      pass(wl, wl.warmUpQueries, wb, new Tracer(false))
      warmUps += 1
    }
    log(f"warm-up done: $warmUps passes of ${wl.warmUpQueries.size} queries in ${secondsSince(w0)}%.1f s")

    def cleanPass(k: Int): PassRun = {
      System.gc() // every pass starts from the same heap
      phase("pass")(pass(wl, passOrder(wl.queries, k), wb, t))
    }
    HeapPeak.arm()
    val passes = mutable.ArrayBuffer.empty[PassRun]
    val m0     = System.nanoTime()
    while (passes.size < MinPasses || secondsSince(m0) < opts.seconds) passes += cleanPass(passes.size)
    val heapMb = HeapPeak.disarm()
    // Traced runs then time one untraced pass, for the tracing overhead.
    val reference = if (!opts.trace) None else {
      t.enabled = false
      Some(cleanPass(0))
    }
    log(s"${passes.size} passes of ${passes.map(p => f"${p.wallMs / 1e3}%.2f").mkString("/")} s")

    // Correctness, after the clock: per-unit checks, outputs identical across
    // passes (and to the untraced pass), and the workload's gates.
    val expected = (reference.toSeq ++ passes).head.units.map(u => u.query -> u.line).toMap
    val gateProblems = setups.take(2).flatMap { case (_, w) =>
      val found = Try(wl.gates(w)) match {
        case Success(m) => m
        case Failure(e) => e.printStackTrace(); wl.queries.map(q => q.name -> s"gate threw $e").toMap
      }
      found.map { case (q, p) => q -> s"data seed ${w.cfg.seed}: $p" }
    }.groupMapReduce(_._1)(_._2)(_ + "; " + _)
    val unitProblems = passes.toVector.flatMap(_.units).map { u =>
      val drift = if (u.line.isDefined && u.line != expected(u.query)) Seq(s"${u.query}: output differs between passes") else Nil
      u -> (u.problems ++ drift ++ gateProblems.get(u.query).map(p => s"${u.query}: $p"))
    }
    log("checks done")
    val units    = unitProblems.map(_._1)
    val failed   = unitProblems.count(_._2.nonEmpty)
    val problems = unitProblems.flatMap(_._2).distinct
    problems.foreach(p => System.err.println(s"perfbench: FAILED $p"))

    val byQuery = passes.head.units.map(u => u.query -> u.line.getOrElse(s"${u.query} FAILED")).toMap
    val lines   = wl.queries.map(q => byQuery(q.name))
    write(new File(opts.workDir, s"outputs/${wl.name}-seed${opts.seed}.txt"), lines)
    write(new File(opts.workDir, s"timings/${wl.name}-seed${opts.seed}.tsv"),
      "pass\tquery\tms" +: passes.toVector.zipWithIndex.flatMap { case (p, i) => p.units.map(u => s"$i\t${u.query}\t${u.ms}") })
    if (opts.trace) t.write(new File(opts.workDir, s"trace/${wl.name}-seed${opts.seed}.jsonl"))

    val samples = units.map(_.ms)
    val passMs  = passes.map(_.wallMs)
    val cfgMs   = Seq("pg", "perfect", "reopt").flatMap { c =>
      val perPass = passes.map(_.units.flatMap(_.configMs.get(c)).sum)
      if (perPass.forall(_ == 0.0)) None else Some(s"${c}_ms" -> Stats.median(perPass.toSeq))
    }.toMap
    val env = ListMap(
      "spark_master" -> spark.sparkContext.master, "spark_threads" -> threads,
      "nproc" -> Runtime.getRuntime.availableProcessors, "spark.default.parallelism" -> Partitions,
      "spark.sql.shuffle.partitions" -> Partitions, "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "gc" -> Gc.names,
      "sf" -> wl.sf, "data_seeds" -> dataSeeds(opts.seed), "tau" -> Workload.Tau, "spark" -> spark.version,
      "java" -> System.getProperty("java.version"))
    println(Json(ListMap(
      "workload" -> wl.name, "trace" -> opts.trace, "env" -> env,
      "passes" -> passes.size, "queries_per_pass" -> wl.queries.size, "samples" -> samples.size,
      "samples_beyond_p90" -> Stats.beyond(samples, 90), "config_ms_per_pass" -> cfgMs,
      "failed_frac" -> failed.toDouble / units.size, "digest" -> sha256(lines),
      "problems" -> problems.take(20))))

    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) Seq(
        ("setup_s", setupS, "s"),
        ("query_ms_p50", Stats.median(samples), "ms"),
        ("query_ms_p90", Stats.percentile(samples, 90), "ms"),
        ("queries_per_s", units.size / (passMs.sum / 1e3), "1/s"),
        ("heap_peak_mb", heapMb, "MiB"))
      else {
        val overhead = Stats.median(passMs.toSeq) - reference.get.wallMs
        LayerMetrics(t.spans.toSeq, spark = wl.runsSpark) ++ Seq(
          ("trace.overhead_ms", overhead, "ms"),
          ("trace.untraced_pass_ms", reference.get.wallMs, "ms"))
      }
    println(resultLine(units.size, failed, metrics))
    failed == 0
  }

  /** The result line: exactly the keys `correct`, `attempted`, `failed` and `metrics`. */
  def resultLine(attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String =
    Json(ListMap(
      "correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "metrics" -> ListMap(metrics.map { case (n, v, u) => n -> ListMap("value" -> v, "unit" -> u) }: _*)))

  private def write(file: File, lines: Seq[String]): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try lines.foreach(out.println) finally out.close()
  }
}
