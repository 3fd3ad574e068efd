package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}

import repro.core.ce.Estimator
import repro.core.opt.{JoinGraph, Plan}
import repro.core.reopt.ExecBackend
import repro.core.stats.TableStats

/** Decorates an [[Estimator]]: each call books its time and one call under
  * `layer` in the enclosing span.
  */
final class TracedEstimator(inner: Estimator, layer: String, tracer: Tracer) extends Estimator {
  override def cardinality(g: JoinGraph, mask: Long): Double = {
    val t0 = System.nanoTime()
    val r  = inner.cardinality(g, mask)
    tracer.embed(layer, System.nanoTime() - t0)
    r
  }
}

/** Decorates an [[ExecBackend]] with one span per call, named after the
  * backend class. `exec_ms` counts the time the backend itself reports; the
  * span also covers its statistics work.
  */
final class TracedBackend(inner: ExecBackend, tracer: Tracer) extends ExecBackend {
  private val kind = inner.getClass.getSimpleName

  override def run(g: JoinGraph, plan: Plan): Double =
    tracer.span(s"$kind.run", "core.exec") {
      val ms = inner.run(g, plan)
      tracer.count("exec_ms", ms)
      ms
    }

  override def materialize(g: JoinGraph, plan: Plan, tempName: String): (Double, TableStats) =
    tracer.span(s"$kind.materialize", "core.exec") {
      val r = inner.materialize(g, plan, tempName)
      tracer.count("exec_ms", r._1)
      tracer.count("materialized_rows", r._2.rowCount.toDouble)
      r
    }
}

/** Cumulative garbage-collection time and count of this JVM. */
object Gc {
  private def beans = ManagementFactory.getGarbageCollectorMXBeans.asScala

  def millis: Long = beans.map(b => math.max(0L, b.getCollectionTime)).sum
  def count: Long  = beans.map(b => math.max(0L, b.getCollectionCount)).sum
  def names: Seq[String] = beans.map(_.getName).toSeq
}

/** Peak heap in use right after a collection, from the JVM's collection
  * notifications, while armed.
  */
object HeapPeak {
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val peak  = new AtomicLong(0L)
  @volatile private var armed = false

  private val listener = new NotificationListener {
    override def handleNotification(n: Notification, handback: Any): Unit =
      if (armed && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        peak.accumulateAndGet(used, math.max)
      }
  }

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _                      =>
  }

  def arm(): Unit = { peak.set(0L); armed = true }

  /** Stops recording, after one collection so that a peak always exists;
    * returns the peak in MiB.
    */
  def disarm(): Double = {
    System.gc()
    Thread.sleep(200) // notifications arrive on another thread
    armed = false
    peak.get / (1024.0 * 1024.0)
  }
}

/** Spark jobs completed and task time spent, from a listener. */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private val jobs   = new AtomicLong(0L)
  private val taskMs = new AtomicLong(0L)
  sc.addSparkListener(this)

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobs.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = taskMs.addAndGet(e.taskInfo.duration)

  /** (jobs, task ms) so far, once the listener has seen every posted event.
    * The listener bus is internal to Spark, so it is reached by reflection.
    */
  def snapshot(): (Long, Long) = {
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
    (jobs.get, taskMs.get)
  }
}
