/**
 * @file
 * The 3D Gaussian scene representation (Eq. 1 of the paper).
 *
 * Parameters are stored in raw (pre-activation) form exactly as they are
 * optimised: log-scales, opacity logits, and zeroth-order SH colour
 * coefficients. Activations (exp / sigmoid / SH evaluation) happen during
 * projection so gradients flow through them in the backward pass.
 *
 * Storage is copy-on-write per column: copying a GaussianCloud bumps one
 * refcount per attribute instead of copying N Gaussians, so publishing a
 * tracking snapshot in the asynchronous SLAM loop is O(columns). A column
 * re-materialises (copies its buffer) only on the first mutation after a
 * copy; columns the mutator never touches keep aliasing the snapshot's
 * buffers. See src/gs/README.md ("Copy-on-write cloud layout").
 */

#ifndef RTGS_GS_GAUSSIAN_HH
#define RTGS_GS_GAUSSIAN_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "geometry/quat.hh"
#include "geometry/vec.hh"

namespace rtgs::gs
{

namespace detail
{
/** Chunk-parallel buffer copy for large column re-materialisation. */
void parallelCopyBytes(void *dst, const void *src, size_t bytes);

/**
 * Allocator whose resize default-initialises instead of zero-filling:
 * column re-materialisation overwrites every byte right after the
 * resize, so the value-initialising memset a plain vector would do is
 * a wasted serial O(N) pass.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    template <typename U>
    struct rebind
    {
        using other = DefaultInitAllocator<U>;
    };
    using std::allocator<T>::allocator;

    template <typename U>
    void
    construct(U *p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void *>(p)) U;
    }
    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};
} // namespace detail

/**
 * One copy-on-write attribute column: a shared vector of T.
 *
 * Reads go through const accessors and never copy. Mutation is ONLY
 * possible through mut() — deliberately explicit, so a read through a
 * non-const cloud reference can never silently re-materialise a
 * column. The first mut() after the column was shared (cloud copied /
 * snapshot published) re-materialises the buffer; while unshared,
 * mutation is as cheap as a plain vector. Concurrent const reads of a
 * shared buffer are safe — re-materialisation only ever *reads* the
 * shared storage.
 *
 * Concurrency contract. The column holds no mutex: the shared_ptr
 * control block (its atomic refcount) is the ONLY cross-thread
 * synchronisation it owns. That is sufficient because of how the SLAM
 * loop uses it:
 *
 *  - Publication: copying a CowColumn (snapshot publish, tracking-
 *    clone refresh) bumps the refcount. The copy itself must be
 *    ordered against concurrent mut() calls by an external lock —
 *    SlamSystem does this under stateMutex_ — and handed to the
 *    reader through another synchronised channel (snapshotMutex_),
 *    which provides the happens-before edge for the buffer contents.
 *  - Shared reads: any number of threads may call const accessors on
 *    columns aliasing one buffer; nothing writes a shared buffer.
 *  - Mutation: mut()/compactKeep() demand the caller hold whatever
 *    lock protects that cloud instance. unshare() only READS the old
 *    buffer into a fresh one, so concurrent readers of the other
 *    aliases are undisturbed; the refcount decrement/increment pair
 *    is the atomic part.
 *
 * The static analysis cannot see through the shared_ptr, so this
 * contract is enforced socially here and mechanically at the call
 * sites (SlamSystem's GUARDED_BY(stateMutex_) on the authoritative
 * cloud).
 */
template <typename T>
class CowColumn
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "re-materialisation copies columns bytewise");

  public:
    using value_type = T;
    /** Backing container (default-init allocator: resize in unshare()
     *  skips the zero-fill the parallel copy would overwrite). */
    using Storage = std::vector<T, detail::DefaultInitAllocator<T>>;

    // Default columns alias one shared immutable empty buffer, so
    // default construction and moved-from repair are allocation-free.
    // The static keeps a permanent reference, so any mut() through a
    // column aliasing it sees use_count > 1 and re-materialises — the
    // sentinel itself is never written.
    CowColumn() : data_(sharedEmpty()) {}

    // Copies share storage (refcount bump); that is the point. Moves
    // are noexcept (so containers of clouds relocate by move) and
    // leave the source aliasing the empty sentinel — every accessor
    // relies on the pointer being non-null.
    CowColumn(const CowColumn &) = default;
    CowColumn &operator=(const CowColumn &) = default;
    CowColumn(CowColumn &&other) noexcept
        : data_(std::move(other.data_))
    {
        other.data_ = sharedEmpty();
    }
    CowColumn &
    operator=(CowColumn &&other) noexcept
    {
        std::swap(data_, other.data_);
        return *this;
    }

    size_t
    size() const
    {
        return data_->size();
    }
    bool empty() const { return size() == 0; }
    const T *
    data() const
    {
        return data_->data();
    }
    const T &
    operator[](size_t i) const
    {
        return (*data_)[i];
    }
    typename Storage::const_iterator
    begin() const
    {
        return data_->begin();
    }
    typename Storage::const_iterator
    end() const
    {
        return data_->end();
    }

    /** Read-only reference to the underlying vector (hot loops hoist
     *  this once instead of re-loading the shared pointer per
     *  access). */
    const Storage &
    view() const
    {
        return *data_;
    }

    /** Mutable reference; re-materialises if the buffer is shared.
     *  The ONLY bulk mutation path (no non-const operator[]): writes
     *  are explicit at the call site, reads can never silently
     *  unshare. */
    Storage &
    mut()
    {
        unshare();
        return *data_;
    }

    /** Two-pointer in-place compaction by keep-mask (keep.size() ==
     *  size()). */
    void
    compactKeep(const std::vector<u8> &keep)
    {
        Storage &v = mut();
        size_t w = 0;
        for (size_t r = 0; r < keep.size(); ++r) {
            if (!keep[r])
                continue;
            if (w != r)
                v[w] = v[r];
            ++w;
        }
        v.resize(w);
    }

    /** True when this column aliases `other`'s buffer (tests/benches). */
    bool shares(const CowColumn &other) const
    {
        return data_ == other.data_;
    }

  private:
    static const std::shared_ptr<Storage> &
    sharedEmpty()
    {
        static const std::shared_ptr<Storage> empty =
            std::make_shared<Storage>();
        return empty;
    }

    void
    unshare()
    {
        if (data_.use_count() <= 1)
            return;
        auto fresh = std::make_shared<Storage>();
        fresh->resize(data_->size()); // default-init: no zero-fill
        detail::parallelCopyBytes(fresh->data(), data_->data(),
                                  data_->size() * sizeof(T));
        data_ = std::move(fresh);
    }

    std::shared_ptr<Storage> data_;
};

/** Zeroth-order SH basis constant. */
inline constexpr Real shC0 = Real(0.28209479177387814);

/** Sigmoid activation for opacity. */
inline Real
sigmoid(Real x)
{
    return Real(1) / (Real(1) + std::exp(-x));
}

/** Inverse sigmoid, for initialising opacity logits. */
inline Real
inverseSigmoid(Real y)
{
    return std::log(y / (Real(1) - y));
}

/**
 * Structure-of-arrays container of 3D Gaussians.
 *
 * `active` implements the paper's mask-prune protocol: masked Gaussians
 * stay in memory (so tile-intersection change ratios can still be
 * evaluated) but are excluded from projection and rendering.
 *
 * Every Gaussian additionally carries a stable `id`, assigned at push
 * and preserved across compactions. Ids are strictly increasing in
 * storage order, which lets a keep-mask computed against one snapshot
 * generation be translated onto any later generation with a single
 * two-pointer merge (the async pruning path relies on this).
 */
class GaussianCloud
{
  public:
    CowColumn<Vec3f> positions;      //!< 3D means (world space)
    CowColumn<Vec3f> logScales;      //!< per-axis log scale
    CowColumn<Quatf> rotations;      //!< raw (unnormalised) orientation
    CowColumn<Real> opacityLogits;   //!< pre-sigmoid opacity
    CowColumn<Vec3f> shCoeffs;       //!< SH degree-0 colour coefficients
    CowColumn<u8> active;            //!< 1 = rendered, 0 = masked
    CowColumn<u64> ids;              //!< stable, strictly increasing

    size_t size() const { return positions.size(); }
    bool empty() const { return positions.empty(); }

    /** Count of unmasked Gaussians. */
    size_t activeCount() const;

    /** Append one Gaussian (active by default). */
    void push(const Vec3f &pos, const Vec3f &log_scale, const Quatf &rot,
              Real opacity_logit, const Vec3f &sh);

    /** Append an isotropic Gaussian from intuitive parameters. */
    void pushIsotropic(const Vec3f &pos, Real scale, Real opacity,
                       const Vec3f &rgb);

    /** Drop all Gaussians whose keep flag is false, compacting storage. */
    void compact(const std::vector<u8> &keep);

    /**
     * Translate a keep-mask expressed against `snapshot` (an earlier
     * generation of this cloud) onto this cloud's current layout via the
     * stable ids: entries whose id the snapshot mask drops are dropped,
     * entries unknown to the snapshot (added since) are kept. Returns
     * the translated mask sized to this cloud.
     */
    std::vector<u8>
    translateKeepMask(const std::vector<u64> &dropped_ids) const;

    /** Reserve storage for n Gaussians. */
    void reserve(size_t n);

    /** Activated opacity of Gaussian k. */
    Real opacity(size_t k) const { return sigmoid(opacityLogits[k]); }

    /** Activated (clamped) RGB colour of Gaussian k. */
    Vec3f
    color(size_t k) const
    {
        Vec3f c = shCoeffs[k] * shC0 + Vec3f{0.5f, 0.5f, 0.5f};
        return {std::max(Real(0), c.x), std::max(Real(0), c.y),
                std::max(Real(0), c.z)};
    }

    /** SH coefficient that yields the given RGB under color(). */
    static Vec3f
    rgbToSh(const Vec3f &rgb)
    {
        return (rgb - Vec3f{0.5f, 0.5f, 0.5f}) * (Real(1) / shC0);
    }

    /** Approximate resident bytes of the cloud's parameter storage. */
    size_t parameterBytes() const;

    /** Number of parameter columns that alias `other`'s buffers. */
    size_t sharedColumnsWith(const GaussianCloud &other) const;

  private:
    /** Next id to assign; copied with the cloud so every lineage stays
     *  strictly increasing. */
    u64 nextId_ = 0;
};

/**
 * Gradient accumulator with the same SoA layout as GaussianCloud.
 * All entries are with respect to the raw (pre-activation) parameters.
 */
struct CloudGrads
{
    std::vector<Vec3f> dPositions;
    std::vector<Vec3f> dLogScales;
    std::vector<Quatf> dRotations;
    std::vector<Real> dOpacityLogits;
    std::vector<Vec3f> dShCoeffs;

    void resize(size_t n);
    size_t size() const { return dPositions.size(); }

    /** Elementwise in-place sum over Gaussians [lo, hi) — the chunk
     *  body of parallel reductions (RenderPipeline::accumulateBackward).
     *  Shapes must match. */
    void accumulateRange(const CloudGrads &other, size_t lo, size_t hi);

    /** Scale every lane of Gaussians [lo, hi) by s. */
    void scaleRange(Real s, size_t lo, size_t hi);

    /**
     * dL/dSigma (3D covariance) Frobenius norm per Gaussian, needed by
     * the Eq. 7 importance score.
     */
    std::vector<Real> covGradNorms;
};

} // namespace rtgs::gs

#endif // RTGS_GS_GAUSSIAN_HH
