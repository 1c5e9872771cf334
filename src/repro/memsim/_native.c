/* Native simulation kernels: capped LRU stack depths and the write
 * buffer's stall loop.
 *
 * Compiled on demand by repro.memsim._native via the system C compiler
 * into one shared library and loaded through ctypes.  The build is
 * optional: without a compiler the stack-distance pass steps the same
 * carried stacks in an interpreted loop
 * (repro.memsim.stackdist.StreamingStackDistance) and the write buffer
 * its scalar specification (repro.memsim.write_buffer.WriteBuffer),
 * both bit-identical.
 */

#include <stdint.h>

/* Step one (stream, set count) pass over n references: for every
 * reference, the LRU stack depth of the referenced id within its set,
 * capped at max_assoc (the value max_assoc means "missed at every
 * associativity up to the cap").  Semantics match the interpreted loop
 * in repro.memsim.stackdist exactly: a depth-0 re-reference leaves the
 * stack untouched, deeper hits move the id to the front, misses push
 * the id and drop the least recently used entry.
 *
 * ids: n nonnegative identifiers (time order).
 * set_mask: n_sets - 1 (n_sets a power of two).
 * stacks: n_sets * max_assoc ids carried between calls, each set's
 *   stack MRU first, -1 marking an empty slot.
 * out: n int16 depths in [0, max_assoc].
 * hist: max_assoc + 1 counts; the depth of every reference at index
 *   >= count_from is added in.
 * flags, flag_hist: when flags is not NULL, the counted references
 *   with a nonzero flag are also added into flag_hist.
 */
void repro_lru_depths(const int64_t *ids, int64_t n, int64_t set_mask,
                      int32_t max_assoc, int64_t *stacks, int16_t *out,
                      int64_t count_from, int64_t *hist,
                      const uint8_t *flags, int64_t *flag_hist)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t id = ids[i];
        int64_t *stack = stacks + (id & set_mask) * (int64_t)max_assoc;
        int64_t shifted = stack[0];
        int32_t depth = 0;
        if (shifted != id) {
            depth = max_assoc;
            stack[0] = id;
            for (int32_t k = 1; k < max_assoc; k++) {
                int64_t cur = stack[k];
                stack[k] = shifted;
                if (cur == id) {
                    depth = k;
                    break;
                }
                shifted = cur;
            }
        }
        out[i] = (int16_t)depth;
        if (i >= count_from) {
            hist[depth]++;
            if (flags != 0 && flags[i])
                flag_hist[depth]++;
        }
    }
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
