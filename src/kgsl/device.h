/**
 * @file
 * The simulated /dev/kgsl-3d0 device file.
 *
 * Userspace (the attacking application, the GLES shim, the offline
 * bot) interacts with the GPU exclusively through open()/ioctl()/
 * close() on this object, mirroring the paper's Figure 10 flow:
 *
 *   int fd = open("/dev/kgsl-3d0", O_RDWR);
 *   ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get);   // reserve
 *   ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &read); // blockread values
 *
 * Reads are served from the RenderEngine's time-aware counter file, so
 * every artefact of real sampling (mid-frame splits, merged frames) is
 * visible through this interface. A SecurityPolicy is consulted on
 * every call, which is where the RBAC mitigation plugs in.
 */

#ifndef GPUSC_KGSL_DEVICE_H
#define GPUSC_KGSL_DEVICE_H

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "gpu/render_engine.h"
#include "kgsl/fault_injector.h"
#include "kgsl/msm_kgsl.h"
#include "kgsl/policy.h"
#include "obs/telemetry.h"

namespace gpusc::kgsl {

/** Simulated KGSL character device. */
class KgslDevice
{
  public:
    KgslDevice(gpu::RenderEngine &engine, const SecurityPolicy &policy);

    /** Device node path, for log/diagnostic symmetry with the paper. */
    static constexpr const char *path() { return "/dev/kgsl-3d0"; }

    /**
     * Open the device file.
     * @return a file descriptor >= 3, or -EACCES if denied.
     */
    int open(const ProcessContext &proc);

    /**
     * Dispatch an ioctl. Supported requests:
     * IOCTL_KGSL_PERFCOUNTER_GET / _PUT / _READ.
     * @return 0 on success or a negative errno.
     */
    int ioctl(int fd, unsigned long request, void *arg);

    /** Close a descriptor; releases its counter reservations. */
    int close(int fd);

    /**
     * The sysfs node
     * /sys/class/kgsl/kgsl-3d0/gpu_busy_percentage (paper §7.3).
     */
    double gpuBusyPercentage();

    /** Number of ioctl calls served (overhead accounting, Fig. 26). */
    std::uint64_t ioctlCount() const { return ioctlCount_; }

    /** Swap the active security policy (used by mitigation benches). */
    void setPolicy(const SecurityPolicy &policy) { policy_ = &policy; }

    /**
     * Attach (or detach, with nullptr) a fault injector. The device
     * consults it on every open/ioctl: transient errno injection,
     * physical-register arbitration (EBUSY), power-collapse /
     * wraparound value transforms and reset epochs (ENODEV).
     */
    void setFaultInjector(FaultInjector *injector)
    {
        injector_ = injector;
    }
    FaultInjector *faultInjector() { return injector_; }

    /**
     * Attach a telemetry context: every ioctl round-trip becomes a
     * `kgsl.ioctl` span plus call/error counters, and every security
     * policy refusal (open or ioctl) a `kgsl.policy_denials` count
     * plus an audit record (Stage::Kgsl, Decision::PolicyDenied) — so
     * defended runs are as observable as undefended ones.
     * Observational only — returned errnos and counter values are
     * unchanged.
     */
    void setTelemetry(obs::Telemetry *tel);

    /** Policy refusals observed (independent of telemetry). */
    std::uint64_t policyDenialCount() const { return policyDenials_; }

    /** Currently open descriptors (fd-leak regression tests). */
    std::size_t openFileCount() const { return files_.size(); }

    /** Counter reservations live across all descriptors. */
    std::size_t totalReservations() const;

  private:
    /** Highest group id hardwareImplementsCounter admits. */
    static constexpr std::uint32_t kMaxGroupId = 0x19;

    /** Reserved countables: bit c of word g holds (group g, countable
     *  c). Only pairs hardwareImplementsCounter admits (countable <
     *  32) are ever indexed. */
    using ReservationMask = std::array<std::uint32_t, kMaxGroupId + 1>;

    struct OpenFile
    {
        ProcessContext proc;
        ReservationMask reservations{};
        /** Reset epoch the descriptor was opened in. */
        std::uint64_t epoch = 0;
        /** Invalidated by a device reset; every ioctl is ENODEV. */
        bool stale = false;
    };

    int ioctlDispatch(int fd, unsigned long request, void *arg);
    void notePolicyDenial(const ProcessContext &proc,
                          const char *what);
    void noteDefenseIntervention(const ProcessContext &proc,
                                 bool stale);
    int doPerfcounterGet(OpenFile &file, kgsl_perfcounter_get *arg);
    int doPerfcounterPut(OpenFile &file, kgsl_perfcounter_put *arg);
    int doPerfcounterRead(OpenFile &file, kgsl_perfcounter_read *arg);

    /** Drop all of @p file's reservations (returning registers). */
    void dropReservations(OpenFile &file);

    gpu::RenderEngine &engine_;
    const SecurityPolicy *policy_;
    FaultInjector *injector_ = nullptr;
    int nextFd_ = 3;
    std::map<int, OpenFile> files_;
    std::uint64_t ioctlCount_ = 0;
    std::uint64_t policyDenials_ = 0;
    obs::Telemetry *telemetry_ = nullptr;
    obs::StageTimer ioctlTimer_;
    obs::Counter *ioctlCallsCtr_ = nullptr;
    obs::Counter *ioctlErrorsCtr_ = nullptr;
    obs::Counter *policyDenialsCtr_ = nullptr;
    obs::Counter *readsThrottledCtr_ = nullptr;
    obs::Counter *readsStaleCtr_ = nullptr;
};

/**
 * @return true if the (group, countable) pair names a counter the
 * simulated hardware implements (the 11 selected ones plus the other
 * enumerable countables exposed by the GLES perf-monitor extension).
 */
bool hardwareImplementsCounter(std::uint32_t groupid,
                               std::uint32_t countable);

} // namespace gpusc::kgsl

#endif // GPUSC_KGSL_DEVICE_H
