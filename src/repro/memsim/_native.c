/* Native simulation kernels: a family of capped LRU stack-depth passes
 * and the write buffer's stall loop.
 *
 * Compiled on demand by repro.memsim._native via the system C compiler
 * into one shared library and loaded through ctypes.  The build is
 * optional: without a compiler the stack-distance family steps the
 * same carried stacks in an interpreted loop
 * (repro.memsim.stackdist.StreamingStackDistance) and the write buffer
 * its scalar specification (repro.memsim.write_buffer.WriteBuffer),
 * both bit-identical.
 */

#include <stdint.h>

#define MAX_PASSES 64

/* One call's view of a family (see repro_lru_family). */
struct family {
    int32_t passes;
    int32_t shift;
    int64_t prev;
    int64_t mask[MAX_PASSES];
    int32_t cap[MAX_PASSES];
    int64_t *stack[MAX_PASSES];
    int64_t *hist[MAX_PASSES];
    int64_t *flag_hist[MAX_PASSES];
    /* Counted references whose walk stopped at pass p: depth 0 there
     * and in every finer pass.  Folded into hist[.][0] at the end. */
    int64_t stops[MAX_PASSES + 1];
    int64_t flag_stops[MAX_PASSES + 1];
};

/* Step references lo..hi-1.  Inlined with a constant counted, so the
 * warm-up and the counted references each get their own loop. */
static inline __attribute__((always_inline)) void
family_run(struct family *f, const int64_t *refs, int64_t lo, int64_t hi,
           int counted, const uint8_t *flags, int16_t *out, int64_t n)
{
    int64_t prev = f->prev;
    int32_t passes = f->passes, shift = f->shift;
    for (int64_t i = lo; i < hi; i++) {
        int64_t id = refs[i] >> shift;
        int flagged = counted && flags != 0 && flags[i];
        int32_t p = 0;
        if (id != prev) {
            prev = id;
            for (; p < passes; p++) {
                int32_t cap = f->cap[p];
                int64_t *stack = f->stack[p] + (id & f->mask[p]) * cap;
                int64_t shifted = stack[0];
                if (shifted == id)
                    break;
                int32_t depth = cap;
                stack[0] = id;
                for (int32_t k = 1; k < cap; k++) {
                    int64_t cur = stack[k];
                    stack[k] = shifted;
                    if (cur == id) {
                        depth = k;
                        break;
                    }
                    shifted = cur;
                }
                if (out != 0)
                    out[p * n + i] = (int16_t)depth;
                if (counted) {
                    f->hist[p][depth]++;
                    if (flagged)
                        f->flag_hist[p][depth]++;
                }
            }
        }
        if (counted) {
            f->stops[p]++;
            if (flagged)
                f->flag_stops[p]++;
        }
    }
    f->prev = prev;
}

/* Step a family of LRU passes over n references, one pass per set
 * count, all reading the same id stream.  A reference's id is
 * refs[i] >> shift (a byte address becomes a line id).  Pass p keeps
 * set_masks[p] + 1 sets of caps[p] ids each; the set counts ascend in
 * powers of two, so every set of a finer pass lies inside one set of
 * each coarser pass.
 *
 * For each pass, a reference's depth is the LRU stack position of its
 * id within its set, capped at caps[p] (the cap means "missed at every
 * associativity up to the cap").  Semantics match the interpreted loop
 * in repro.memsim.stackdist exactly: a depth-0 re-reference leaves the
 * stack untouched, deeper hits move the id to the front, misses push
 * the id and drop the least recently used entry.
 *
 * Two shortcuts give the same depths without walking every stack: a
 * repeat of the previous id is at the front of its set in every pass,
 * and an id at the front of its set in one pass is the most recent of
 * that set, so also of the finer set holding it -- the walk stops
 * there and every finer pass counts depth 0.
 *
 * stacks: each pass's (set_masks[p] + 1) * caps[p] ids, pass after
 *   pass, carried between calls; each set's stack MRU first, -1
 *   marking an empty slot.
 * last: the previous call's last id (-1 before the first).
 * hist: each pass's caps[p] + 1 counts, pass after pass; the depth of
 *   every reference at index >= count_from is added in.
 * flags, flag_hist: when flags is not NULL, the counted references
 *   with a nonzero flag are also added into flag_hist (laid out as
 *   hist).
 * out: NULL, or passes rows of n int16 zeros, one row per pass, into
 *   which each pass a reference's walk reaches writes its depth (the
 *   passes it stops short of keep their 0).
 * count_from: in [0, n]; passes: in [1, MAX_PASSES].
 *
 * Returns 0, or -1 without stepping anything when a reference is
 * negative (-1 is the empty-slot marker).
 */
int64_t repro_lru_family(const int64_t *refs, int64_t n, int32_t shift,
                         int32_t passes, const int64_t *set_masks,
                         const int32_t *caps, int64_t *stacks,
                         int64_t *last, int64_t count_from, int64_t *hist,
                         const uint8_t *flags, int64_t *flag_hist,
                         int16_t *out)
{
    struct family f = {.passes = passes, .shift = shift, .prev = *last};
    int64_t any = 0;
    for (int64_t i = 0; i < n; i++)
        any |= refs[i];
    if (any < 0)
        return -1;
    int64_t stack_at = 0, hist_at = 0;
    for (int32_t p = 0; p < passes; p++) {
        f.mask[p] = set_masks[p];
        f.cap[p] = caps[p];
        f.stack[p] = stacks + stack_at;
        f.hist[p] = hist + hist_at;
        f.flag_hist[p] = flags != 0 ? flag_hist + hist_at : 0;
        stack_at += (f.mask[p] + 1) * f.cap[p];
        hist_at += f.cap[p] + 1;
    }
    family_run(&f, refs, 0, count_from, 0, flags, out, n);
    family_run(&f, refs, count_from, n, 1, flags, out, n);
    *last = f.prev;
    int64_t at_front = 0, flagged_at_front = 0;
    for (int32_t p = 0; p < passes; p++) {
        at_front += f.stops[p];
        f.hist[p][0] += at_front;
        if (flags != 0) {
            flagged_at_front += f.flag_stops[p];
            f.flag_hist[p][0] += flagged_at_front;
        }
    }
    return 0;
}

/* Present n store arrival times to a depth-entry write buffer retiring
 * one store every retire cycles; return the stall cycles of the stores
 * at index >= count_from.  Semantics match WriteBuffer.store driven by
 * simulate_write_buffer_reference exactly, for any arrival order: each
 * arrival is shifted by the slip (all stalls so far), completed stores
 * leave the buffer, a full buffer stalls until its oldest store
 * completes, and memory starts each store once it is both presented
 * and free.
 *
 * state: 4 + depth int64s carried between calls --
 *   [0] head, [1] count: the buffered completion times are the count
 *       ring entries from head on, oldest first;
 *   [2] the cycle memory is free again; [3] the slip;
 *   [4...] the ring of completion times.
 */
int64_t repro_write_buffer(const int64_t *times, int64_t n, int64_t depth,
                           int64_t retire, int64_t count_from,
                           int64_t *state)
{
    int64_t head = state[0], count = state[1];
    int64_t free_at = state[2], slip = state[3];
    int64_t *ring = state + 4;
    int64_t counted = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t now = times[i] + slip;
        while (count > 0 && ring[head] <= now) {
            if (++head == depth)
                head = 0;
            count--;
        }
        if (count >= depth) {
            int64_t stall = ring[head] - now;
            now = ring[head];
            if (++head == depth)
                head = 0;
            count--;
            slip += stall;
            if (i >= count_from)
                counted += stall;
        }
        int64_t finish = (now > free_at ? now : free_at) + retire;
        int64_t tail = head + count;
        if (tail >= depth)
            tail -= depth;
        ring[tail] = finish;
        count++;
        free_at = finish;
    }
    state[0] = head;
    state[1] = count;
    state[2] = free_at;
    state[3] = slip;
    return counted;
}
