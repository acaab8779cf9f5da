/*
 * Algorithm 3 of the paper over one chunk of a shard's input stream.
 *
 * This is the per-element loop of KnowledgeFreeStrategy.process(), written
 * plainly: for each identifier, in order, update the Count-Min sketch, read
 * the estimate and min_sigma, fill or admit into the sampling memory Gamma,
 * then draw the output uniformly from Gamma.  It consumes the strategy's
 * coin streams exactly as the scalar path does, so the outputs, Gamma, the
 * sketch table and the coin positions it leaves are bit-identical to that
 * loop's.  repro/core/chunk_kernel.py builds it with the system compiler
 * (-ffp-contract=off keeps every float product unfused, as in CPython) and
 * calls it through ctypes; the caller checks every array length.
 */
#include <stdint.h>
#include <stdlib.h>

#define MERSENNE_61 ((uint64_t)0x1FFFFFFFFFFFFFFFULL)

/* ((a * x + b) mod p) mod range, p = 2^61 - 1, for x already reduced mod p:
 * UniversalHashFunction.__call__ in 128-bit arithmetic. */
static uint64_t hash_row(uint64_t a, uint64_t b, uint64_t range, uint64_t x)
{
    unsigned __int128 product = (unsigned __int128)a * x + b;
    uint64_t folded = (uint64_t)(product & MERSENNE_61)
                      + (uint64_t)(product >> 61);
    folded = (folded & MERSENNE_61) + (folded >> 61);
    if (folded >= MERSENNE_61)
        folded -= MERSENNE_61;
    return folded % range;
}

/* Membership of Gamma: an open-addressing set of slot numbers (plus one; 0
 * marks an empty entry) keyed by the identifier stored in that slot, with
 * linear probing and backward-shift deletion. */
typedef struct {
    int64_t *entries;
    uint64_t mask;
    int shift;
    const int64_t *memory;
} member_set;

static uint64_t home(const member_set *set, int64_t identifier)
{
    return ((uint64_t)identifier * 0x9E3779B97F4A7C15ULL) >> set->shift;
}

static uint64_t find(const member_set *set, int64_t identifier)
{
    uint64_t index = home(set, identifier);
    while (set->entries[index]
           && set->memory[set->entries[index] - 1] != identifier)
        index = (index + 1) & set->mask;
    return index;
}

static void insert(member_set *set, int64_t slot)
{
    set->entries[find(set, set->memory[slot])] = slot + 1;
}

/* Remove the identifier in memory[slot]; call before overwriting the slot. */
static void discard(member_set *set, int64_t slot)
{
    uint64_t hole = find(set, set->memory[slot]);
    uint64_t next = hole;
    for (;;) {
        next = (next + 1) & set->mask;
        if (!set->entries[next])
            break;
        uint64_t want = home(set, set->memory[set->entries[next] - 1]);
        /* move the entry back unless its home lies cyclically in
         * (hole, next] */
        int stays = hole <= next ? (hole < want && want <= next)
                                 : (hole < want || want <= next);
        if (!stays) {
            set->entries[hole] = set->entries[next];
            hole = next;
        }
    }
    set->entries[hole] = 0;
}

/*
 * ids[n]                   the chunk, in arrival order
 * hashes[depth * 3]        per row: a, b and range of its hash function
 * table[depth * width]     the Count-Min counters, updated in place
 * memory[capacity]         Gamma; its first `length` slots are in use
 * samples[n]               one sample coin per element
 * accepts[n], victims[n]   peeked accept and victim coins
 * outputs[n]               one output identifier per element
 * used[2]                  out: accept and victim coins consumed
 *
 * Returns Gamma's new length, or -1 when the membership set cannot be
 * allocated (nothing has been changed then).
 */
int64_t repro_chunk_kernel(const int64_t *ids, int64_t n,
                           const uint64_t *hashes, int64_t depth,
                           int64_t width, int64_t *table,
                           int64_t *memory, int64_t length,
                           int64_t capacity, const double *samples,
                           const double *accepts, const double *victims,
                           int64_t *outputs, int64_t *used)
{
    const int64_t cells = depth * width;
    int shift = 63;
    uint64_t size = 2;
    while (size < 2 * (uint64_t)capacity) {
        size <<= 1;
        shift--;
    }
    member_set set = {calloc(size, sizeof(int64_t)), size - 1, shift, memory};
    if (!set.entries)
        return -1;
    for (int64_t slot = 0; slot < length; slot++)
        insert(&set, slot);

    /* min_sigma (the smallest non-zero cell) and how many cells hold it */
    int64_t minimum = 0, at_minimum = 0;
    for (int64_t cell = 0; cell < cells; cell++) {
        int64_t value = table[cell];
        if (value > 0 && (minimum == 0 || value < minimum)) {
            minimum = value;
            at_minimum = 1;
        } else if (value > 0 && value == minimum) {
            at_minimum++;
        }
    }

    int64_t accepted = 0, drawn = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t identifier = ids[i];
        int64_t reduced = identifier % (int64_t)MERSENNE_61;
        if (reduced < 0)
            reduced += (int64_t)MERSENNE_61;
        int64_t estimate = INT64_MAX;
        for (int64_t row = 0; row < depth; row++) {
            const uint64_t *hash = hashes + 3 * row;
            int64_t *cell = table + row * width
                            + hash_row(hash[0], hash[1], hash[2],
                                       (uint64_t)reduced);
            const int64_t value = (*cell)++;
            if (value + 1 < estimate)
                estimate = value + 1;
            if (value == 0) {
                if (minimum == 1) {
                    at_minimum++;
                } else {
                    minimum = 1;
                    at_minimum = 1;
                }
            } else if (value == minimum && --at_minimum == 0) {
                /* the last cell at the minimum moved up: recount at the new
                 * minimum over the table as it stands, this element's later
                 * rows not yet updated */
                minimum++;
                for (int64_t other = 0; other < cells; other++)
                    at_minimum += table[other] == minimum;
            }
        }

        const int member = set.entries[find(&set, identifier)] != 0;
        if (length < capacity) {
            if (!member) {
                memory[length] = identifier;
                insert(&set, length);
                length++;
            }
            outputs[i] = memory[(int64_t)(samples[i] * (double)length)];
            continue;
        }
        if (!member) {
            double acceptance = (double)minimum / (double)estimate;
            if (acceptance > 1.0)
                acceptance = 1.0;
            if (acceptance > 0 && accepts[accepted++] < acceptance) {
                const int64_t victim =
                    (int64_t)(victims[drawn++] * (double)capacity);
                discard(&set, victim);
                memory[victim] = identifier;
                insert(&set, victim);
            }
        }
        outputs[i] = memory[(int64_t)(samples[i] * (double)capacity)];
    }
    free(set.entries);
    used[0] = accepted;
    used[1] = drawn;
    return length;
}
