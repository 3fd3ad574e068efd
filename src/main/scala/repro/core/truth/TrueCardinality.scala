package repro.core.truth

import scala.annotation.tailrec
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import repro.core.data.LocalDB
import repro.core.opt.JoinGraph

/** Exact cardinalities of every connected sub-join of one query.
  *
  * This is the reproduction's stand-in for the paper's two oracles: the
  * perfect-(n) cardinality injector (§III) and the EXPLAIN ANALYZE output the
  * re-optimization simulation inspects (§V). Both need |⋈ S| for arbitrary
  * connected relation subsets S of a query.
  *
  * |⋈ S| is computed by *variable elimination* along a relation chain: the
  * sub-join of a chain prefix is compressed to a map
  * `frontier-values -> row multiplicity`, where the frontier is only the set
  * of join equivalence classes connecting the prefix to the *remaining
  * relations of S* (classes dangling to relations outside S are irrelevant
  * for the count and are marginalized away immediately). Class sets are
  * bitmasks over positions in `graph.classes`; after a prefix P of S the
  * frontier is `touching(P) & touching(S \ P)`. The chain order
  * greedily absorbs relations that close open classes (dimensions right
  * after their fact), so frontiers stay near-singleton (`movie_id`-sized)
  * even for subsets whose join result has billions of rows — which is what
  * makes perfect-(17) over 113 queries feasible. The paper obtained the same
  * numbers by instrumenting executions offline.
  *
  * Instances are keyed to the *original* [[JoinGraph]] of a query; contracted
  * (re-optimized) graphs query it through original-relation masks.
  */
final class TrueCardinality(val graph: JoinGraph, db: LocalDB) {

  private type Key = ArraySeq[Long]

  private val cardCache = mutable.HashMap.empty[Long, Long]
  private val ndvCache  = mutable.HashMap.empty[(Long, Int), Long]

  /** Filtered row indices per relation (the relation's local predicates). */
  private val filtered: Vector[Array[Int]] = graph.rels.map { rel =>
    val t     = db(rel.table)
    val preds = rel.preds.map(p => (t.col(p.column), p))
    val buf   = new mutable.ArrayBuilder.ofInt
    var r = 0
    while (r < t.rowCount) {
      var ok = true
      var pi = 0
      while (ok && pi < preds.length) { ok = preds(pi)._2.eval(preds(pi)._1(r)); pi += 1 }
      if (ok) buf += r
      r += 1
    }
    buf.result()
  }

  require(graph.classes.size <= 64, "at most 64 join classes")

  /** Set of classes (bit ci = graph.classes(ci)) touching relation i. */
  private val relClasses: Array[Long] = {
    val a = new Array[Long](graph.nRels)
    for ((c, ci) <- graph.classes.zipWithIndex; (i, _) <- c.members) a(i) |= 1L << ci
    a
  }

  /** Ascending positions of the set bits of `m`. */
  private def bits(m: Long): Vector[Int] =
    Vector.unfold(m)(r => if (r == 0) None else Some((java.lang.Long.numberOfTrailingZeros(r), r & (r - 1))))

  /** Classes touching some relation of `rels`. */
  private def touching(rels: Long): Long = {
    var m = rels; var s = 0L
    while (m != 0) { s |= relClasses(java.lang.Long.numberOfTrailingZeros(m)); m &= m - 1 }
    s
  }

  /** Classes open after absorbing `prefix` of `mask`: those joining the
    * prefix to the rest of `mask`. Such a class has ≥ 2 members in `mask`.
    */
  private def cut(mask: Long, prefix: Long): Long = touching(prefix) & touching(mask & ~prefix)

  /** column of class ci on relation i. */
  private def classCol(ci: Int, i: Int): String =
    graph.classes(ci).members.find(_._1 == i).get._2

  /** Greedy elimination order for the relations of `mask`: start at the most
    * selective relation; repeatedly append the adjacent relation that leaves
    * the fewest open classes (ties: fewer filtered rows, then lower index).
    */
  private def chainOrder(mask: Long): Vector[Int] = {
    @tailrec def grow(order: Vector[Int], prefix: Long): Vector[Int] = {
      val cands = graph.neighbors(prefix) & mask
      if (cands == 0) {
        require(prefix == mask, s"mask $mask not connected at prefix $prefix")
        order
      } else {
        val next = bits(cands).minBy(i =>
          (java.lang.Long.bitCount(cut(mask, prefix | (1L << i))), filtered(i).length, i))
        grow(order :+ next, prefix | (1L << next))
      }
    }
    val start = bits(mask).minBy(i => filtered(i).length)
    grow(Vector(start), 1L << start)
  }

  /** Eliminate `mask` along the greedy chain. The classes of `keep` are
    * retained in the frontier from the step that first touches them on; the
    * result map is then keyed by their values (one empty key when `keep` is 0).
    */
  private def eliminate(mask: Long, keep: Long): mutable.HashMap[Key, Long] = {
    require(mask != 0, "empty mask")
    val order = chainOrder(mask)

    /** frontier classes after absorbing `prefix`, by ascending position. */
    def frontier(prefix: Long): Vector[Int] = bits(cut(mask, prefix) | (keep & touching(prefix)))

    var prefix  = 1L << order.head
    var keyCls  = frontier(prefix)
    var current = {
      val i    = order.head
      val t    = db(graph.rels(i).table)
      val cols = keyCls.map(ci => t.col(classCol(ci, i)))
      val m    = mutable.HashMap.empty[Key, Long]
      for (r <- filtered(i)) {
        val k = ArraySeq.unsafeWrapArray(Array.tabulate(cols.length)(x => cols(x)(r)))
        m.updateWith(k)(c => Some(c.getOrElse(0L) + 1L))
      }
      m
    }

    for (i <- order.drop(1)) {
      val newPrefix = prefix | (1L << i)
      val newKeyCls = frontier(newPrefix)
      val t = db(graph.rels(i).table)
      // classes joining r to the prefix; all are open, so on the frontier
      val joinCls      = bits(relClasses(i) & touching(prefix))
      val joinPosInKey = joinCls.map(keyCls.indexOf)
      // output key composition: from current (classes already in keyCls) or from r
      val outFromCur = newKeyCls.map(keyCls.indexOf)
      val rCols      = newKeyCls.map { ci =>
        if ((relClasses(i) & (1L << ci)) != 0) t.col(classCol(ci, i)) else null
      }
      val joinColsR = joinCls.map(ci => t.col(classCol(ci, i)))
      // group r's filtered rows by (join key, contributed output parts)
      val rGroups = mutable.HashMap.empty[Key, mutable.HashMap[Key, Long]]
      for (r <- filtered(i)) {
        val jk = ArraySeq.unsafeWrapArray(Array.tabulate(joinColsR.length)(x => joinColsR(x)(r)))
        val contrib = ArraySeq.unsafeWrapArray(
          Array.tabulate(newKeyCls.length)(x =>
            if (outFromCur(x) < 0 && rCols(x) != null) rCols(x)(r) else 0L))
        rGroups.getOrElseUpdate(jk, mutable.HashMap.empty)
          .updateWith(contrib)(c => Some(c.getOrElse(0L) + 1L))
      }
      val out = mutable.HashMap.empty[Key, Long]
      for ((k, cnt) <- current) {
        val jk = ArraySeq.unsafeWrapArray(Array.tabulate(joinPosInKey.length)(x => k(joinPosInKey(x))))
        rGroups.get(jk) match {
          case Some(groups) =>
            for ((contrib, rcnt) <- groups) {
              val outArr = new Array[Long](newKeyCls.length)
              var x = 0
              while (x < newKeyCls.length) {
                outArr(x) = if (outFromCur(x) >= 0) k(outFromCur(x)) else contrib(x)
                x += 1
              }
              out.updateWith(ArraySeq.unsafeWrapArray(outArr))(c =>
                Some(c.getOrElse(0L) + cnt * rcnt))
            }
          case None =>
        }
      }
      current = out
      prefix = newPrefix
      keyCls = newKeyCls
    }
    current
  }

  /** Exact |⋈ S| (with all base filters applied) for connected subset S. */
  def card(mask: Long): Long = cardCache.getOrElseUpdate(mask, {
    require(graph.connected(mask), s"not a connected subset: $mask")
    eliminate(mask, keep = 0L).valuesIterator.sum
  })

  /** Exact number of distinct values of class `origId` (which must touch S)
    * in ⋈ S.
    */
  def classNdv(mask: Long, origId: Int): Long = ndvCache.getOrElseUpdate((mask, origId), {
    require(graph.connected(mask), s"not a connected subset: $mask")
    val ci = graph.classes.indexWhere(_.origId == origId)
    require(ci >= 0 && (graph.classes(ci).relMask & mask) != 0,
      s"class $origId does not touch mask $mask")
    val m = eliminate(mask, keep = 1L << ci)
    // final key is exactly (class ci); count distinct values with rows
    m.count(_._2 > 0).toLong
  })

  /** Number of distinct subsets whose cardinality has been computed. */
  def memoSize: Int = cardCache.size
}
