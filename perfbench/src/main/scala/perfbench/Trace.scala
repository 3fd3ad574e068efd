package perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable

/** One traced interval: a call into one layer, or a step of the benchmark
  * itself (layer `harness`). `embedded` books time spent inside this span in
  * calls too frequent to get spans of their own (estimator calls), by layer;
  * `counts` holds work counts measured at this boundary.
  */
final class Span(val id: Int, val parent: Int, val name: String, val layer: String, val start: Long) {
  var end: Long = start
  val counts: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  val embedded: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty

  def nanos: Long = end - start

  def add(key: String, v: Double): Unit = counts(key) = counts.getOrElse(key, 0.0) + v
}

/** Records spans in memory while `enabled`; otherwise every call runs its
  * body and records nothing. Single-threaded, like the closed-loop client.
  */
final class Tracer(var enabled: Boolean) {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var open: List[Span] = Nil

  def span[A](name: String, layer: String)(body: => A): A =
    if (!enabled) body
    else {
      val s = new Span(spans.size, open.headOption.fold(-1)(_.id), name, layer, System.nanoTime())
      spans += s
      open = s :: open
      try body
      finally { s.end = System.nanoTime(); open = open.tail }
    }

  /** Adds `v` to count `key` of the innermost open span. */
  def count(key: String, v: Double): Unit =
    if (enabled && open.nonEmpty) open.head.add(key, v)

  /** Books one call of `nanos` in `layer` inside the innermost open span;
    * the calls are counted under `<layer>.calls`.
    */
  def embed(layer: String, nanos: Long): Unit =
    if (enabled && open.nonEmpty) {
      val s = open.head
      s.embedded(layer) = s.embedded.getOrElse(layer, 0L) + nanos
      s.add(callsKey.getOrElseUpdate(layer, s"$layer.calls"), 1)
    }

  private val callsKey = mutable.HashMap.empty[String, String]

  /** Writes every span as one JSON line. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(Json(Map(
        "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "layer" -> s.layer,
        "start_ns" -> s.start, "end_ns" -> s.end, "counts" -> s.counts, "embedded_ns" -> s.embedded)))
    } finally out.close()
  }
}

object Trace {

  /** `root` and every span below it (spans are recorded parent first). */
  def subtree(spans: Seq[Span], root: Span): Vector[Span] = {
    val ids = mutable.HashSet(root.id)
    spans.iterator.filter(s => s.id >= root.id).filter { s =>
      val in = s.id == root.id || ids.contains(s.parent)
      if (in) ids += s.id
      in
    }.toVector
  }

  /** Self time of a span: its duration less its children's durations and the
    * time embedded in it. Calls run one at a time, so children never overlap.
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val childNanos = spans.groupMapReduce(_.parent)(_.nanos)(_ + _)
    spans.map(s => s.id -> (s.nanos - childNanos.getOrElse(s.id, 0L) - s.embedded.values.sum)).toMap
  }

  /** Self time per layer: each span's self time goes to its layer, and each
    * embedded time to the layer it was booked under.
    */
  def layerSelfNanos(spans: Seq[Span]): Map[String, Long] = {
    val self = selfNanos(spans)
    val own  = spans.map(s => s.layer -> self(s.id))
    val emb  = spans.flatMap(_.embedded.toSeq)
    (own ++ emb).groupMapReduce(_._1)(_._2)(_ + _)
  }
}
