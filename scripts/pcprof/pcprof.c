/* SIGPROF program-counter sampler, loaded with LD_PRELOAD.
 *
 * Every millisecond of process CPU time (ITIMER_PROF) the kernel interrupts
 * whichever thread is running, and the handler records the interrupted PC.
 * A PC sample does not care which stack it was taken on, so simulated
 * fibers (which gprof cannot follow) are profiled like any other code.
 * At exit the samples and the process's memory map are written to
 * $PCPROF_OUT.<pid>; scripts/pcprof/pcprof resolves them to functions.
 * Without PCPROF_OUT the library does nothing.
 *
 *   cc -O2 -shared -fPIC -o pcprof.so pcprof.c
 *   PCPROF_OUT=/tmp/prof LD_PRELOAD=./pcprof.so ./program args...
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)

static uintptr_t samples[MAX_SAMPLES];
static atomic_uint nsamples;
static int armed;

static void on_prof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = ctx;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pcprof: unsupported architecture"
#endif
  const unsigned i = atomic_fetch_add_explicit(&nsamples, 1, memory_order_relaxed);
  if (i < MAX_SAMPLES) samples[i] = pc;
}

__attribute__((constructor)) static void pcprof_start(void) {
  if (getenv("PCPROF_OUT") == NULL) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  armed = setitimer(ITIMER_PROF, &every_ms, NULL) == 0;
}

__attribute__((destructor)) static void pcprof_stop(void) {
  if (!armed) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[4096];
  snprintf(path, sizeof(path), "%s.%d", getenv("PCPROF_OUT"), (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  unsigned n = atomic_load(&nsamples);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  for (unsigned i = 0; i < n; ++i) fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096 + 256];
    while (fgets(line, sizeof(line), maps) != NULL) fprintf(out, "map %s", line);
    fclose(maps);
  }
  fclose(out);
}
